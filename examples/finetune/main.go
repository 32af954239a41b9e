// Fine-tuning: start from a quickly pretrained base model and compare full
// AdamW fine-tuning against LoRA and the APOLLO family on a synthetic
// topic-classification suite (the Table 5 protocol at example scale).
package main

import (
	"fmt"

	"apollo/internal/bench"
	"apollo/internal/data"
	"apollo/internal/obs"
	"apollo/internal/optim"
	"apollo/internal/train"
)

func main() {
	proxy, err := bench.ProxyByName("130M")
	if err != nil {
		panic(err)
	}
	corpus, err := bench.NewCorpus(17)
	if err != nil {
		panic(err)
	}

	fmt.Println("pretraining the base model (AdamW, 150 steps)...")
	base := proxy.NewProxyModel(33)
	res := train.Pretrain(base, optim.NewAdamW(optim.Hyper{LR: proxy.LR}), corpus, train.PretrainConfig{
		Batch: proxy.Batch, Seq: proxy.Seq, Steps: 150,
		Schedule: optim.NewWarmupCosine(proxy.LR, 150),
	})
	fmt.Printf("base model val ppl: %.2f\n\n", res.FinalValPPL)

	task := data.GenerateFTTask(corpus.Source(), data.FTTaskConfig{
		Name: "topic-classification", Train: 160, Test: 96,
		CtxLen: 24, Classes: 4, Noise: 0.1, Seed: 5,
	})

	methods := []string{"AdamW", "LoRA", "DoRA", "GaLore", "Fira", "APOLLO", "APOLLO-Mini"}
	fmt.Printf("%-14s %10s %16s\n", "method", "accuracy", "optim states")
	for _, m := range methods {
		model := base.Clone()
		lr := 3e-3
		if m == "AdamW" {
			lr = 1e-3
		}
		opt, err := bench.BuildOptimizer(m, lr, 8, 7)
		if err != nil {
			panic(err)
		}
		acc := train.FineTune(model, opt, task, train.FineTuneConfig{
			Epochs: 4, Batch: 8, Schedule: optim.Linear{Peak: lr, TotalSteps: 160}, Seed: 11,
		})
		fmt.Printf("%-14s %9.1f%% %16s\n", opt.Name(), acc*100, obs.FormatBytes(opt.StateBytes()))
	}
	fmt.Println("\nexpected shape (Table 5): APOLLO family ≈ full fine-tuning accuracy with a fraction of the state.")
}
