package train

import (
	"math"
	"testing"

	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
	"apollo/internal/zero"
)

// TestBatchSpansCoverEveryExample pins the fine-tuning batching contract:
// the spans partition [0, n) exactly — no index dropped, none repeated —
// for divisible and non-divisible n alike.
func TestBatchSpansCoverEveryExample(t *testing.T) {
	cases := []struct {
		n, batch  int
		wantSpans int
	}{
		{n: 16, batch: 8, wantSpans: 2},
		{n: 17, batch: 8, wantSpans: 3}, // trailing short batch of 1
		{n: 23, batch: 8, wantSpans: 3}, // trailing short batch of 7
		{n: 5, batch: 8, wantSpans: 1},  // whole set smaller than one batch
		{n: 1, batch: 8, wantSpans: 1},
		{n: 0, batch: 8, wantSpans: 0},
		{n: 7, batch: 1, wantSpans: 7},
		{n: 7, batch: 0, wantSpans: 7}, // degenerate batch clamps to 1
	}
	for _, tc := range cases {
		spans := batchSpans(tc.n, tc.batch)
		if len(spans) != tc.wantSpans {
			t.Fatalf("batchSpans(%d,%d): %d spans, want %d", tc.n, tc.batch, len(spans), tc.wantSpans)
		}
		seen := make([]bool, tc.n)
		for _, s := range spans {
			if s[0] >= s[1] || s[1] > tc.n {
				t.Fatalf("batchSpans(%d,%d): bad span %v", tc.n, tc.batch, s)
			}
			for i := s[0]; i < s[1]; i++ {
				if seen[i] {
					t.Fatalf("batchSpans(%d,%d): index %d covered twice", tc.n, tc.batch, i)
				}
				seen[i] = true
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("batchSpans(%d,%d): index %d never covered", tc.n, tc.batch, i)
			}
		}
	}
}

// TestFineTunePartialBatchTrains is the regression for the dropped trailing
// batch: a training set smaller than one batch used to yield zero optimizer
// steps (weights bit-identical to initialization) in every epoch.
func TestFineTunePartialBatchTrains(t *testing.T) {
	cfg := data.DefaultSourceConfig()
	cfg.Vocab = 64
	src, err := data.NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	task := data.GenerateFTTask(src, data.FTTaskConfig{
		Name: "partial", Train: 5, Test: 12, CtxLen: 8, Classes: 2, Noise: 0, Seed: 3,
	})
	model := testModel(21)
	before := model.Params().List()[0].W.Clone()
	acc := FineTune(model, optim.NewSGD(optim.Hyper{LR: 1e-2}, 0), task, FineTuneConfig{
		Epochs: 1, Batch: 8, Seed: 4,
	})
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of bounds", acc)
	}
	if model.Params().List()[0].W.Equal(before) {
		t.Fatal("5 examples at batch 8 trained nothing — trailing partial batch still dropped")
	}
}

// TestValidateNonPositiveBatches: zero or negative batch counts must return
// a clean 0 (perplexity 1), not the NaN of a division by zero.
func TestValidateNonPositiveBatches(t *testing.T) {
	model := testModel(22)
	corpus := testCorpus(t)
	for _, batches := range []int{0, -1, -100} {
		got := Validate(model, corpus, batches, 2, 8)
		if math.IsNaN(got) {
			t.Fatalf("Validate(batches=%d) = NaN", batches)
		}
		if got != 0 {
			t.Fatalf("Validate(batches=%d) = %v, want 0", batches, got)
		}
		if ppl := math.Exp(got); ppl != 1 {
			t.Fatalf("perplexity %v, want 1", ppl)
		}
	}
	if got := Validate(model, corpus, 2, 2, 8); got <= 0 || math.IsNaN(got) {
		t.Fatalf("positive-batch Validate %v not a positive loss", got)
	}
}

// maskedDPRun trains with every training batch fully ignore-masked (the
// counted==0 path) and returns the result plus the final weights.
func maskedDPRun(t *testing.T, opt optim.Optimizer, replicas int) (Result, []*tensor.Matrix) {
	t.Helper()
	cfg := nn.Config{Vocab: 64, Dim: 16, Hidden: 40, Heads: 2, Layers: 2, MaxSeq: 32}
	model := nn.NewModel(cfg, tensor.NewRNG(9))
	srcCfg := data.DefaultSourceConfig()
	srcCfg.Vocab = 64
	src, err := data.NewSource(srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.NewCorpus(src, 10, 11)
	corpus.HookTrainBatch = func(b *data.Batch) {
		for i := range b.Targets {
			b.Targets[i] = -1
		}
	}
	res := DPPretrain(model, opt, corpus, DPConfig{
		PretrainConfig: PretrainConfig{
			Batch: 4, Seq: 8, Steps: 3, EvalEvery: 1, EvalBatches: 1,
		},
		Replicas: replicas,
	})
	var weights []*tensor.Matrix
	for _, p := range model.Params().List() {
		weights = append(weights, p.W.Clone())
	}
	return res, weights
}

// TestDPPretrainAllMaskedBatches covers the counted==0 branch in plain DP
// and under ZeRO sharding: every step reports zero training loss, the
// gradient is exactly zero (SGD leaves the weights bit-identical to
// initialization), and the replica-count determinism contract still holds.
func TestDPPretrainAllMaskedBatches(t *testing.T) {
	sgd := func() optim.Optimizer { return optim.NewSGD(optim.Hyper{LR: 0.1}, 0) }

	res1, w1 := maskedDPRun(t, sgd(), 1)
	res3, w3 := maskedDPRun(t, sgd(), 3)
	resZ, wZ := maskedDPRun(t, zero.NewSharded(sgd(), 4), 4)

	for _, res := range []Result{res1, res3, resZ} {
		for _, m := range res.Series[:len(res.Series)-1] {
			if m.TrainLoss != 0 {
				t.Fatalf("[%s] step %d train loss %v, want 0 on an all-masked batch",
					res.Optimizer, m.Step, m.TrainLoss)
			}
			if math.IsNaN(m.ValLoss) {
				t.Fatalf("[%s] step %d val loss NaN", res.Optimizer, m.Step)
			}
		}
	}

	// Zero gradient: SGD's update is -lr·grad, so any weight drift would
	// mean a non-zero gradient leaked out of the masked path.
	init := nn.NewModel(nn.Config{Vocab: 64, Dim: 16, Hidden: 40, Heads: 2, Layers: 2, MaxSeq: 32}, tensor.NewRNG(9))
	for i, p := range init.Params().List() {
		if !w1[i].Equal(p.W) {
			t.Fatalf("param %d (%s) moved under an all-masked run — gradient not zero", i, p.Name)
		}
	}

	// Determinism contract: replicas 1, 3 and 4-with-ZeRO bit-identical.
	for i := range w1 {
		if !w3[i].Equal(w1[i]) {
			t.Fatalf("param %d differs between replicas 1 and 3 on masked batches", i)
		}
		if !wZ[i].Equal(w1[i]) {
			t.Fatalf("param %d differs between replicas 1 and 4-zero on masked batches", i)
		}
	}
	if res3.FinalValPPL != res1.FinalValPPL || resZ.FinalValPPL != res1.FinalValPPL {
		t.Fatalf("final ppl diverged: 1→%v 3→%v 4z→%v", res1.FinalValPPL, res3.FinalValPPL, resZ.FinalValPPL)
	}
}

// TestDPPretrainMixedMaskedBatches alternates fully masked and genuine
// batches so the counted==0 branch must hand a clean zeroed gradient state
// to the following real step, across replica counts.
func TestDPPretrainMixedMaskedBatches(t *testing.T) {
	run := func(replicas int, opt optim.Optimizer) (Result, []*tensor.Matrix) {
		cfg := nn.Config{Vocab: 64, Dim: 16, Hidden: 40, Heads: 2, Layers: 2, MaxSeq: 32}
		model := nn.NewModel(cfg, tensor.NewRNG(12))
		srcCfg := data.DefaultSourceConfig()
		srcCfg.Vocab = 64
		src, err := data.NewSource(srcCfg)
		if err != nil {
			t.Fatal(err)
		}
		corpus := data.NewCorpus(src, 13, 14)
		calls := 0
		corpus.HookTrainBatch = func(b *data.Batch) {
			if calls%2 == 0 {
				for i := range b.Targets {
					b.Targets[i] = -1
				}
			}
			calls++
		}
		res := DPPretrain(model, opt, corpus, DPConfig{
			PretrainConfig: PretrainConfig{Batch: 4, Seq: 8, Steps: 4, EvalEvery: 1, EvalBatches: 1},
			Replicas:       replicas,
		})
		var ws []*tensor.Matrix
		for _, p := range model.Params().List() {
			ws = append(ws, p.W.Clone())
		}
		return res, ws
	}

	adamw := func() optim.Optimizer { return optim.NewAdamW(optim.Hyper{LR: 1e-3}) }
	res1, w1 := run(1, adamw())
	res4, w4 := run(4, adamw())
	resZ, wZ := run(3, zero.NewSharded(adamw(), 3))

	for _, res := range []Result{res1, res4, resZ} {
		for i, m := range res.Series[:len(res.Series)-1] {
			masked := i%2 == 0
			if masked && m.TrainLoss != 0 {
				t.Fatalf("[%s] masked step %d train loss %v, want 0", res.Optimizer, m.Step, m.TrainLoss)
			}
			if !masked && m.TrainLoss == 0 {
				t.Fatalf("[%s] genuine step %d train loss 0", res.Optimizer, m.Step)
			}
		}
	}
	for i := range w1 {
		if !w4[i].Equal(w1[i]) || !wZ[i].Equal(w1[i]) {
			t.Fatalf("param %d diverged across replica counts with mixed masked batches", i)
		}
	}
}
