package nn

import (
	goruntime "runtime"
	"testing"

	"apollo/internal/runtime"
	"apollo/internal/tensor"
)

// arenaBatch draws a batch·seq token/target pair; one target in five is the
// ignore index, so cross-entropy's skipped rows meet reused arena memory.
func arenaBatch(rng *tensor.RNG, vocab, batch, seq int) (tokens, targets []int) {
	tokens, targets = make([]int, batch*seq), make([]int, batch*seq)
	for i := range tokens {
		tokens[i], targets[i] = rng.Intn(vocab), rng.Intn(vocab)
		if rng.Intn(5) == 0 {
			targets[i] = -1
		}
	}
	return tokens, targets
}

// TestArenaReuseMatchesFreshModel runs one model through batches of
// shrinking, then growing shape with an EvalLoss in between — every pass
// after the first is handed memory the previous one dirtied — and demands
// the loss and every gradient a fresh model computes for the same batch, bit
// for bit.
func TestArenaReuseMatchesFreshModel(t *testing.T) {
	cfg := tinyConfig()
	rng := tensor.NewRNG(21)
	reused := NewModel(cfg, tensor.NewRNG(20))
	for _, shape := range [][2]int{{3, 6}, {2, 4}, {4, 8}} {
		batch, seq := shape[0], shape[1]
		tokens, targets := arenaBatch(rng, cfg.Vocab, batch, seq)
		evalTokens, evalTargets := arenaBatch(rng, cfg.Vocab, 2, 5)

		fresh := NewModel(cfg, tensor.NewRNG(20))
		wantLoss := fresh.Loss(tokens, targets, batch, seq)
		wantEval := fresh.EvalLoss(evalTokens, evalTargets, 2, 5)

		reused.Params().ZeroGrad()
		if got := reused.Loss(tokens, targets, batch, seq); got != wantLoss {
			t.Fatalf("%dx%d: reused model loss %v, fresh model %v", batch, seq, got, wantLoss)
		}
		if got := reused.EvalLoss(evalTokens, evalTargets, 2, 5); got != wantEval {
			t.Fatalf("%dx%d: reused model eval loss %v, fresh model %v", batch, seq, got, wantEval)
		}
		for i, p := range reused.Params().List() {
			if !p.Grad.Equal(fresh.Params().List()[i].Grad) {
				t.Fatalf("%dx%d: gradient of %s differs between the reused and a fresh model", batch, seq, p.Name)
			}
		}
	}
}

// TestForwardBackwardSteadyStateAllocs pins what a forward+backward costs
// the heap once the arena has seen the batch shape. What is left are the
// closures handed to the pool, a fixed number per pass; the limits come from
// the batch, not from counting them: fewer objects than the batch has rows
// (nothing is allocated per row, let alone per element) and fewer bytes than
// a quarter of the smallest rows×dim activation (no activation, activation
// gradient or attention buffer reaches the heap). dlogits is made once,
// outside the pass: cross-entropy is the caller's and allocates its own.
func TestForwardBackwardSteadyStateAllocs(t *testing.T) {
	defer runtime.SetWorkers(runtime.Workers())
	runtime.SetWorkers(1)
	cfg := Config{Vocab: 19, Dim: 32, Hidden: 64, Heads: 2, Layers: 2, MaxSeq: 32}
	const batch, seq = 16, 32
	model := NewModel(cfg, tensor.NewRNG(22))
	tokens, targets := arenaBatch(tensor.NewRNG(23), cfg.Vocab, batch, seq)
	_, dlogits := CrossEntropy(model.Forward(tokens, batch, seq), targets, -1)
	pass := func() {
		model.Forward(tokens, batch, seq)
		model.Backward(dlogits)
	}
	pass()

	const runs = 10
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	objects := testing.AllocsPerRun(runs, pass)
	goruntime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the counted ones.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)

	rows := batch * seq
	if objects >= float64(rows) {
		t.Errorf("steady-state forward+backward allocates %v objects for %d rows", objects, rows)
	}
	if limit := float64(rows * cfg.Dim * 4 / 4); bytes >= limit {
		t.Errorf("steady-state forward+backward allocates %.0f bytes, want under %.0f (a quarter of one %d×%d activation)", bytes, limit, rows, cfg.Dim)
	}
	t.Logf("%v objects, %.0f bytes per pass", objects, bytes)
}
