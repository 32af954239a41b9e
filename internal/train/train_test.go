package train

import (
	"math"
	"testing"

	"apollo/internal/core"
	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

func testCorpus(t *testing.T) *data.Corpus {
	t.Helper()
	cfg := data.DefaultSourceConfig()
	cfg.Vocab = 64
	cfg.CopyLagMin = 4
	cfg.CopyLagMax = 16
	src, err := data.NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return data.NewCorpus(src, 1, 2)
}

func testModel(seed uint64) *nn.Model {
	cfg := nn.Config{Vocab: 64, Dim: 16, Hidden: 32, Heads: 2, Layers: 2, MaxSeq: 32}
	return nn.NewModel(cfg, tensor.NewRNG(seed))
}

func TestPretrainReducesPerplexity(t *testing.T) {
	corpus := testCorpus(t)
	model := testModel(1)
	opt := optim.NewAdamW(optim.Hyper{LR: 3e-3})
	initial := math.Exp(Validate(model, corpus, 2, 4, 16))
	res := Pretrain(model, opt, corpus, PretrainConfig{
		Batch: 4, Seq: 16, Steps: 60, EvalEvery: 30, EvalBatches: 2,
		Schedule: optim.NewWarmupCosine(3e-3, 60), ClipNorm: 1.0,
	})
	if res.FinalValPPL >= initial {
		t.Fatalf("ppl did not improve: %v → %v", initial, res.FinalValPPL)
	}
	if res.FinalValPPL >= float64(64) {
		t.Fatalf("final ppl %v worse than uniform over vocab", res.FinalValPPL)
	}
	if len(res.Series) < 2 {
		t.Fatalf("expected eval series, got %d points", len(res.Series))
	}
}

func TestPretrainDeterministic(t *testing.T) {
	run := func() float64 {
		corpus := testCorpus(t)
		model := testModel(7)
		opt := core.NewMini(optim.Hyper{LR: 0.01})
		res := Pretrain(model, opt, corpus, PretrainConfig{Batch: 2, Seq: 16, Steps: 20})
		return res.FinalValPPL
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("pretrain not deterministic: %v vs %v", a, b)
	}
}

func TestValidateIsStable(t *testing.T) {
	corpus := testCorpus(t)
	model := testModel(3)
	a := Validate(model, corpus, 3, 2, 16)
	b := Validate(model, corpus, 3, 2, 16)
	if a != b {
		t.Fatalf("validation not reproducible: %v vs %v", a, b)
	}
}

func TestScheduleDrivesLR(t *testing.T) {
	corpus := testCorpus(t)
	model := testModel(4)
	opt := optim.NewAdamW(optim.Hyper{LR: 999})
	res := Pretrain(model, opt, corpus, PretrainConfig{
		Batch: 2, Seq: 8, Steps: 10, EvalEvery: 5,
		Schedule: optim.Constant(0.004),
	})
	last := res.Series[len(res.Series)-1]
	if last.LR != 0.004 {
		t.Fatalf("schedule not applied: LR %v", last.LR)
	}
}

func TestEncodeFT(t *testing.T) {
	src, _ := data.NewSource(data.DefaultSourceConfig())
	task := data.GenerateFTTask(src, data.FTTaskConfig{
		Name: "x", Train: 4, Test: 2, CtxLen: 6, Classes: 3, Seed: 9,
	})
	ex := task.TrainSet[0]
	tokens, targets := EncodeFT(task, ex)
	if len(tokens) != 7 || len(targets) != 7 {
		t.Fatalf("lengths %d/%d", len(tokens), len(targets))
	}
	if tokens[6] != task.SepToken {
		t.Fatal("separator missing")
	}
	for i := 0; i < 6; i++ {
		if targets[i] != -1 {
			t.Fatalf("position %d not masked", i)
		}
	}
	if targets[6] != task.LabelBase+ex.Label {
		t.Fatalf("label target %d want %d", targets[6], task.LabelBase+ex.Label)
	}
}

func TestFineTuneBeatsChance(t *testing.T) {
	srcCfg := data.DefaultSourceConfig()
	srcCfg.Vocab = 64
	src, err := data.NewSource(srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	task := data.GenerateFTTask(src, data.FTTaskConfig{
		Name: "topic", Train: 96, Test: 64, CtxLen: 16, Classes: 2, Noise: 0, Seed: 11,
	})
	model := testModel(12)
	opt := optim.NewAdamW(optim.Hyper{LR: 2e-3})
	acc := FineTune(model, opt, task, FineTuneConfig{Epochs: 6, Batch: 8, Seed: 13})
	if acc <= 0.55 {
		t.Fatalf("fine-tuned accuracy %v not above chance (0.5)", acc)
	}
}

func TestFTAccuracyBoundsAndDeterminism(t *testing.T) {
	srcCfg := data.DefaultSourceConfig()
	srcCfg.Vocab = 64
	src, _ := data.NewSource(srcCfg)
	task := data.GenerateFTTask(src, data.FTTaskConfig{
		Name: "x", Train: 8, Test: 16, CtxLen: 8, Classes: 4, Seed: 15,
	})
	model := testModel(16)
	a := FTAccuracy(model, task)
	b := FTAccuracy(model, task)
	if a != b {
		t.Fatal("accuracy must be deterministic")
	}
	if a < 0 || a > 1 {
		t.Fatalf("accuracy %v out of range", a)
	}
}
