package bench

import (
	"apollo/internal/data"
	"apollo/internal/eval"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
	"apollo/internal/train"
)

func init() {
	register(Experiment{
		ID:       "table4",
		Title:    "Zero-shot downstream evaluation of pretrained models",
		PaperRef: "Table 4",
		Run:      runTable4,
	})
	register(Experiment{
		ID:       "table5",
		Title:    "Commonsense fine-tuning comparison",
		PaperRef: "Table 5",
		Run:      runTable5,
	})
	register(Experiment{
		ID:       "table6",
		Title:    "MMLU-style fine-tuning across domains and base models",
		PaperRef: "Table 6",
		Run:      runTable6,
	})
}

func runTable4(ctx *RunContext) error {
	proxy, err := ProxyByName("350M")
	if err != nil {
		return err
	}
	paperAvg := map[string]map[string]float64{
		"short": {"AdamW": 0.3554, "APOLLO": 0.3681, "APOLLO-Mini": 0.3654},
		"long":  {"AdamW": 0.3712, "APOLLO": 0.3840, "APOLLO-Mini": 0.3785},
	}
	for _, setting := range []struct {
		label string
		key   string
		seq   int
	}{
		{"sequence length 32 (paper: 256)", "short", proxy.Seq},
		{"sequence length 64 (paper: 1024)", "long", proxy.Seq * 2},
	} {
		ctx.Printf("Table 4 — zero-shot accuracy, proxy-350M, %s\n\n", setting.label)
		ctx.Printf("%-14s %8s", "Method", "ppl")
		suite := data.ZeroShotSuite(ctx.Seed + 77)
		for _, t := range suite {
			ctx.Printf(" %10s", t.Name)
		}
		ctx.Printf(" %9s %9s\n", "Average", "paper-avg")
		for _, method := range []string{"AdamW", "APOLLO", "APOLLO-Mini"} {
			// The models Table 2 reports: same recipe, same seed.
			base, err := pretrainOne(ctx, proxy, method, 0, ctx.steps(proxy.Steps), setting.seq, 1)
			if err != nil {
				return err
			}
			results := eval.RunZeroShotSuite(base.Model, base.Source, ctx.Seed+77)
			ctx.Printf("%-14s %8.2f", method, base.FinalValPPL)
			for _, r := range results {
				ctx.Printf(" %10.3f", r.Accuracy)
			}
			ctx.Printf(" %9.3f %9.3f\n", eval.Average(results), paperAvg[setting.key][method])
		}
		ctx.Printf("\n")
	}
	ctx.Printf("shape to verify: APOLLO(-Mini) pretrained models score at or above the\nAdamW model on average, mirroring their lower perplexity.\n")
	return nil
}

func runTable5(ctx *RunContext) error {
	proxy, err := ProxyByName("130M")
	if err != nil {
		return err
	}
	// One shared pretrained base (the paper fine-tunes Llama-3.2-1B).
	base, err := pretrainOne(ctx, proxy, "AdamW", 0, ctx.steps(proxy.Steps), 0, 1)
	if err != nil {
		return err
	}
	methods := []string{"AdamW", "LoRA", "DoRA", "GaLore", "Fira", "APOLLO w. SVD", "APOLLO", "APOLLO-Mini"}
	paperAvg := map[string]float64{
		"AdamW": 68.07, "LoRA": 59.21, "DoRA": 66.38, "GaLore": 61.14, "Fira": 68.98,
		"APOLLO w. SVD": 69.08, "APOLLO": 68.21, "APOLLO-Mini": 68.23,
	}
	suite := data.CommonsenseSuite(ctx.Seed + 99)
	ctx.Printf("Table 5 — commonsense fine-tuning accuracy (%%), proxy base model\n\n")
	ctx.Printf("%-14s", "Method")
	for _, t := range suite {
		ctx.Printf(" %7s", t.Name)
	}
	ctx.Printf(" %9s %9s\n", "Average", "paper-avg")
	ftRank := 8
	for _, method := range methods {
		var sum float64
		accs := make([]float64, 0, len(suite))
		for _, taskCfg := range suite {
			task := data.GenerateFTTask(base.Source, taskCfg)
			model := cloneModel(base.Model, proxy.Model)
			lr := 3e-3
			if method == "AdamW" {
				lr = 1e-3
			}
			opt, err := BuildOptimizer(method, lr, ftRank, ctx.Seed+5)
			if err != nil {
				return err
			}
			acc := train.FineTune(model, opt, task, train.FineTuneConfig{
				Epochs: max(1, ctx.steps(12)/4), Batch: 8,
				Schedule: optim.Linear{Peak: lr, TotalSteps: 200}, Seed: ctx.Seed,
			})
			accs = append(accs, acc)
			sum += acc
		}
		ctx.Printf("%-14s", method)
		for _, a := range accs {
			ctx.Printf(" %7.1f", a*100)
		}
		ctx.Printf(" %9.1f %9.1f\n", sum/float64(len(suite))*100, paperAvg[method])
	}
	ctx.Printf("\nshape to verify: APOLLO family ≈ full AdamW fine-tuning; plain LoRA and\nGaLore trail (paper: APOLLO w. SVD best overall).\n")
	return nil
}

func runTable6(ctx *RunContext) error {
	proxy, err := ProxyByName("130M")
	if err != nil {
		return err
	}
	// Three "base models" = three pretraining seeds standing in for
	// LLaMA-3-8B / Gemma-7B / Mistral-7B.
	bases := []struct {
		name string
		seed uint64
	}{
		{"proxy-LLaMA", 1}, {"proxy-Gemma", 2}, {"proxy-Mistral", 3},
	}
	methods := []string{"AdamW", "LoRA", "GaLore", "Fira", "APOLLO", "APOLLO-Mini"}
	paperAvg := map[string]map[string]float64{
		"proxy-LLaMA":   {"AdamW": 64.85, "LoRA": 64.25, "GaLore": 64.43, "Fira": 64.32, "APOLLO": 64.35, "APOLLO-Mini": 64.41},
		"proxy-Gemma":   {"AdamW": 34.21, "LoRA": 32.18, "GaLore": 30.95, "Fira": 33.26, "APOLLO": 33.81, "APOLLO-Mini": 31.67},
		"proxy-Mistral": {"AdamW": 61.67, "LoRA": 61.41, "GaLore": 61.56, "Fira": 61.72, "APOLLO": 61.58, "APOLLO-Mini": 61.35},
	}
	suite := data.MMLUSuite(ctx.Seed + 111)
	ctx.Printf("Table 6 — MMLU-style fine-tuning accuracy (%%), best over a small LR sweep\n\n")
	for _, b := range bases {
		saved := ctx.Seed
		ctx.Seed = ctx.Seed*131 + b.seed
		base, err := pretrainOne(ctx, proxy, "AdamW", 0, ctx.steps(proxy.Steps), 0, 1)
		ctx.Seed = saved
		if err != nil {
			return err
		}
		ctx.Printf("%s:\n", b.name)
		ctx.Printf("  %-14s", "Method")
		for _, t := range suite {
			ctx.Printf(" %15s", t.Name)
		}
		ctx.Printf(" %9s %9s\n", "Average", "paper-avg")
		for _, method := range methods {
			var bestAvg float64
			var bestAccs []float64
			for _, lr := range []float64{1e-3, 3e-3} { // paper sweeps nine LRs
				var sum float64
				accs := make([]float64, 0, len(suite))
				for _, taskCfg := range suite {
					task := data.GenerateFTTask(base.Source, taskCfg)
					model := cloneModel(base.Model, proxy.Model)
					opt, err := BuildOptimizer(method, lr, 4, ctx.Seed+7)
					if err != nil {
						return err
					}
					acc := train.FineTune(model, opt, task, train.FineTuneConfig{
						Epochs: max(1, ctx.steps(8)/4), Batch: 8,
						Schedule: optim.Linear{Peak: lr, TotalSteps: 120}, Seed: ctx.Seed,
					})
					accs = append(accs, acc)
					sum += acc
				}
				if avg := sum / float64(len(suite)); avg > bestAvg {
					bestAvg = avg
					bestAccs = accs
				}
			}
			ctx.Printf("  %-14s", method)
			for _, a := range bestAccs {
				ctx.Printf(" %15.1f", a*100)
			}
			ctx.Printf(" %9.1f %9.1f\n", bestAvg*100, paperAvg[b.name][method])
		}
	}
	ctx.Printf("\nshape to verify: all memory-efficient methods within ~1-2 points of full\nfine-tuning; APOLLO competitive at rank 4, Mini at rank 1.\n")
	return nil
}

// cloneModel deep-copies a pretrained base so each fine-tuning run starts
// from identical weights.
func cloneModel(base *nn.Model, cfg nn.Config) *nn.Model {
	clone := nn.NewModel(cfg, tensor.NewRNG(0xC10E))
	srcParams := base.Params().List()
	dstParams := clone.Params().List()
	for i := range srcParams {
		dstParams[i].W.CopyFrom(srcParams[i].W)
	}
	return clone
}
