package nn

import (
	"math"
	goruntime "runtime"
	"slices"
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
// outside the pass; TestCrossEntropyShardPassSteadyStateAllocs pins the pass
// with the loop's cross-entropy in it.
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

// TestCrossEntropyShardPassSteadyStateAllocs pins a training pass as the
// loop runs it — Forward, CrossEntropyShard over the logits it returns,
// BackwardRelease of the gradient that comes back — at fewer heap bytes than
// one logits matrix once the arena has seen the shape: the gradient seed is
// the logits' own arena buffer, not a rows×vocab matrix of its own.
func TestCrossEntropyShardPassSteadyStateAllocs(t *testing.T) {
	defer runtime.SetWorkers(runtime.Workers())
	runtime.SetWorkers(1)
	cfg := Config{Vocab: 64, Dim: 32, Hidden: 64, Heads: 2, Layers: 2, MaxSeq: 32}
	const batch, seq = 8, 32
	model := NewModel(cfg, tensor.NewRNG(24))
	tokens, targets := arenaBatch(tensor.NewRNG(25), cfg.Vocab, batch, seq)
	counted := CountTargets(targets, -1)
	pass := func() {
		_, dlogits := CrossEntropyShard(model.Forward(tokens, batch, seq), targets, -1, counted)
		model.BackwardRelease(dlogits, nil)
	}
	pass()

	const runs = 10
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for range runs {
		pass()
	}
	goruntime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := float64(batch * seq * cfg.Vocab * 4); bytes >= limit {
		t.Errorf("steady-state training pass allocates %.0f bytes, want under %.0f (one %d×%d logits matrix)", bytes, limit, batch*seq, cfg.Vocab)
	}
	t.Logf("%.0f bytes per pass", bytes)
}

// TestLossWritesOverLogits: Model.Loss is the clone-free pass — the loss and
// every gradient bit for bit those of Forward, CrossEntropy (which works on
// a clone) and Backward, a batch with no counted target a zero loss and
// gradient, and a steady-state call under one logits matrix of heap.
func TestLossWritesOverLogits(t *testing.T) {
	defer runtime.SetWorkers(runtime.Workers())
	runtime.SetWorkers(1)
	cfg := Config{Vocab: 64, Dim: 32, Hidden: 64, Heads: 2, Layers: 2, MaxSeq: 32}
	const batch, seq = 4, 16
	tokens, targets := arenaBatch(tensor.NewRNG(27), cfg.Vocab, batch, seq)
	for _, masked := range []bool{false, true} {
		tgts := targets
		if masked {
			tgts = make([]int, len(targets))
			for i := range tgts {
				tgts[i] = -1
			}
		}
		ref, got := NewModel(cfg, tensor.NewRNG(26)), NewModel(cfg, tensor.NewRNG(26))
		ref.Params().ZeroGrad()
		got.Params().ZeroGrad()
		want, dlogits := CrossEntropy(ref.Forward(tokens, batch, seq), tgts, -1)
		ref.Backward(dlogits)
		if loss := got.Loss(tokens, tgts, batch, seq); math.Float64bits(loss) != math.Float64bits(want) {
			t.Fatalf("masked=%v: Loss %v, want %v", masked, loss, want)
		}
		gp := got.Params().List()
		for i, p := range ref.Params().List() {
			for j, v := range p.Grad.Data {
				if math.Float32bits(gp[i].Grad.Data[j]) != math.Float32bits(v) {
					t.Fatalf("masked=%v: %s grad[%d] %v, want %v", masked, p.Name, j, gp[i].Grad.Data[j], v)
				}
			}
		}
	}

	model := NewModel(cfg, tensor.NewRNG(26))
	model.Loss(tokens, targets, batch, seq)
	const runs = 10
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for range runs {
		model.Loss(tokens, targets, batch, seq)
	}
	goruntime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := float64(batch * seq * cfg.Vocab * 4); bytes >= limit {
		t.Errorf("steady-state Loss allocates %.0f bytes, want under %.0f (one %d×%d logits matrix)", bytes, limit, batch*seq, cfg.Vocab)
	}
}

// TestArenaKeepsOnlyWhatBackwardReads: after a forward the arena's kept list
// holds exactly the buffers backward reads, in the order the forward took
// them — the embedding output; per block the two 1/rms, k, v, q, ctx, the
// attention output, gate, up and the block output; NormF's 1/rms and the
// logits — and nothing a rebuild replaces (the norm outputs, the gated
// product, the attention probabilities). After forward+backward the whole
// arena stays under what the 1B and 7B proxies held with the probabilities
// kept (16.83 and 57.31 MiB).
func TestArenaKeepsOnlyWhatBackwardReads(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cfg        Config
		batch, seq int
		limitMiB   float64
	}{
		{"1B proxy 8x64", Config{Vocab: 256, Dim: 96, Hidden: 256, Heads: 6, Layers: 5, MaxSeq: 128}, 8, 64, 14.5},
		{"7B proxy 8x128", Config{Vocab: 256, Dim: 128, Hidden: 344, Heads: 8, Layers: 6, MaxSeq: 128}, 8, 128, 44.5},
	} {
		model := NewModel(tc.cfg, tensor.NewRNG(28))
		tokens, targets := arenaBatch(tensor.NewRNG(29), tc.cfg.Vocab, tc.batch, tc.seq)
		logits := model.Forward(tokens, tc.batch, tc.seq)

		var want [][]float32
		for i, b := range model.Blocks {
			if i == 0 {
				want = append(want, b.Norm1.x.Data)
			}
			a := b.Attn
			want = append(want, b.Norm1.inv, a.k.Data, a.v.Data, a.q.Data, a.ctx.Data,
				b.Norm2.x.Data, b.Norm2.inv, b.MLP.gateOut.Data, b.MLP.upOut.Data)
			if i+1 < len(model.Blocks) {
				want = append(want, model.Blocks[i+1].Norm1.x.Data)
			} else {
				want = append(want, model.NormF.x.Data)
			}
		}
		want = append(want, model.NormF.inv, logits.Data)

		kept := model.ws.kept.slots[:model.ws.kept.next]
		if len(kept) != len(want) || len(model.ws.kept.slots) != len(want) {
			t.Fatalf("%s: forward kept %d buffers (%d positions), backward reads %d", tc.name, len(kept), len(model.ws.kept.slots), len(want))
		}
		for i, m := range kept {
			if &m.Data[0] != &want[i][0] || len(m.Data) != len(want[i]) {
				t.Fatalf("%s: kept buffer %d is not the %d-th buffer backward reads", tc.name, i, i)
			}
		}
		if n := model.ws.trans.next; n != 0 {
			t.Fatalf("%s: forward returned with %d transients taken", tc.name, n)
		}

		_, dlogits := CrossEntropyShard(logits, targets, -1, CountTargets(targets, -1))
		model.Backward(dlogits)
		mib := float64(model.ActivationBytes()) / (1 << 20)
		if mib > tc.limitMiB {
			t.Errorf("%s: arena holds %.2f MiB after forward+backward, want ≤ %.1f", tc.name, mib, tc.limitMiB)
		}
		t.Logf("%s: %.2f MiB", tc.name, mib)
	}
}

// TestForwardTransientsFitBackward: no transient a forward takes is wider
// than the buffer backward takes at its position, so the transient list
// after a forward+backward is exactly what backward alone grows it to. A
// forward that landed a wide temporary where backward serves a narrow one
// would pin that position at the wider size for the arena's life.
func TestForwardTransientsFitBackward(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cfg        Config
		batch, seq int
	}{
		{"1B proxy 8x64", Config{Vocab: 256, Dim: 96, Hidden: 256, Heads: 6, Layers: 5, MaxSeq: 128}, 8, 64},
		{"tiny 3x6", tinyConfig(), 3, 6},
	} {
		caps := func(dropForward bool) []int {
			model := NewModel(tc.cfg, tensor.NewRNG(30))
			tokens, targets := arenaBatch(tensor.NewRNG(31), tc.cfg.Vocab, tc.batch, tc.seq)
			logits := model.Forward(tokens, tc.batch, tc.seq)
			if dropForward {
				model.ws.trans.slots = nil
			}
			_, dlogits := CrossEntropyShard(logits, targets, -1, CountTargets(targets, -1))
			model.Backward(dlogits)
			var out []int
			for _, m := range model.ws.trans.slots {
				out = append(out, cap(m.Data))
			}
			return out
		}
		if both, backward := caps(false), caps(true); !slices.Equal(both, backward) {
			t.Errorf("%s: transient capacities per position after forward+backward %v, after backward alone %v", tc.name, both, backward)
		}
	}
}
