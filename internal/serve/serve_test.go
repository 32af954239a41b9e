package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"apollo/internal/ckpt"
	"apollo/internal/data"
	"apollo/internal/eval"
	"apollo/internal/memmodel"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
	"apollo/internal/train"
)

// serveTestConfig is the architecture shared by the serve tests — the 60M
// proxy shape, large enough that fixed bookkeeping overheads stay under the
// 2% footprint tolerance.
func serveTestConfig() nn.Config {
	return nn.Config{Vocab: 64, Dim: 32, Hidden: 88, Heads: 4, Layers: 2, MaxSeq: 64}
}

func serveTestCorpus(t testing.TB) *data.Corpus {
	t.Helper()
	cfg := data.DefaultSourceConfig()
	cfg.Vocab = 64
	src, err := data.NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return data.NewCorpus(src, 17, 18)
}

// trainAndSave runs a short training run and writes its checkpoint,
// returning the path and the trained model (the bit-exact reference for
// every served result).
func trainAndSave(t testing.TB, dir string, steps int) (string, *nn.Model) {
	t.Helper()
	model := nn.NewModel(serveTestConfig(), tensor.NewRNG(33))
	opt := optim.NewAdamW(optim.Hyper{LR: 1e-3})
	corpus := serveTestCorpus(t)
	train.Pretrain(model, opt, corpus, train.PretrainConfig{Batch: 4, Seq: 16, Steps: steps})
	st, err := ckpt.Capture(steps, model.Params().List(), opt, corpus)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("run-%d.ckpt", steps))
	if err := ckpt.SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	return path, model
}

func newTestRegistry(t testing.TB, cfg Config) *Registry {
	t.Helper()
	if cfg.Model.Vocab == 0 {
		cfg.Model = serveTestConfig()
	}
	if cfg.Corpus == nil {
		cfg.Corpus = serveTestCorpus(t)
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestServedPerplexityBitIdentical is the tentpole determinism contract: a
// served perplexity query returns the bit-identical loss train.Validate
// computes on the restored snapshot, at any batcher concurrency.
func TestServedPerplexityBitIdentical(t *testing.T) {
	dir := t.TempDir()
	path, ref := trainAndSave(t, dir, 4)
	offline := train.Validate(ref, serveTestCorpus(t), 4, 4, 16)

	reg := newTestRegistry(t, Config{})
	for _, concurrency := range []int{1, 3, 8} {
		var wg sync.WaitGroup
		losses := make([]float64, concurrency)
		errs := make([]error, concurrency)
		for i := 0; i < concurrency; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				err := reg.WithEntry(path, func(e *Entry) error {
					loss, err := e.Perplexity(4, 4, 16)
					losses[i] = loss
					return err
				})
				errs[i] = err
			}(i)
		}
		wg.Wait()
		for i := 0; i < concurrency; i++ {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if losses[i] != offline {
				t.Fatalf("concurrency %d query %d: served loss %v != offline %v (bit drift)",
					concurrency, i, losses[i], offline)
			}
		}
	}
}

// TestBatchedScoringMatchesEval pins the coalescing transparency claim:
// option scores computed through batched forwards are bit-identical to
// eval.OptionLogProb on the same weights, under concurrency.
func TestBatchedScoringMatchesEval(t *testing.T) {
	dir := t.TempDir()
	path, ref := trainAndSave(t, dir, 3)
	reg := newTestRegistry(t, Config{MaxBatch: 4})
	e, err := reg.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}

	rng := tensor.NewRNG(7)
	type q struct {
		ctx, opt []int
		want     float64
	}
	qs := make([]q, 24)
	for i := range qs {
		ctxLen := rng.Intn(10) // includes 0: the empty-context service case
		optLen := 1 + rng.Intn(6)
		ctx := make([]int, ctxLen)
		opt := make([]int, optLen)
		for j := range ctx {
			ctx[j] = rng.Intn(64)
		}
		for j := range opt {
			opt[j] = rng.Intn(64)
		}
		qs[i] = q{ctx: ctx, opt: opt, want: eval.OptionLogProb(ref, ctx, opt)}
	}

	var wg sync.WaitGroup
	got := make([]float64, len(qs))
	errs := make([]error, len(qs))
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = e.LogProb(qs[i].ctx, qs[i].opt)
		}(i)
	}
	wg.Wait()
	for i := range qs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != qs[i].want {
			t.Fatalf("query %d (ctx %d, opt %d): served %v != eval %v",
				i, len(qs[i].ctx), len(qs[i].opt), got[i], qs[i].want)
		}
	}
}

// TestZeroShotCoalescesAndMatchesEval: one zero-shot query fills batched
// forwards (a deterministic coalescing check — every option is queued
// before the executor wakes) and reproduces eval.ZeroShotAccuracy exactly.
func TestZeroShotCoalescesAndMatchesEval(t *testing.T) {
	dir := t.TempDir()
	path, ref := trainAndSave(t, dir, 3)
	reg := newTestRegistry(t, Config{MaxBatch: 8})
	e, err := reg.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	items := data.GenerateMCTask(reg.cfg.Corpus.Source(), data.MCTaskConfig{
		Name: "t", Items: 6, CtxLen: 8, ContLen: 4, Options: 3, Distractor: 0.5, Seed: 5,
	})
	want := eval.ZeroShotAccuracy(ref, items)
	got, err := e.ZeroShot(items)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("served zero-shot accuracy %v != eval %v", got, want)
	}
	// 18 equal-length units, MaxBatch 8 → 3 forwards, largest batch 8 (8 is
	// a SizeBuckets bound, so the batch-size histogram's Quantile(1) is exact).
	if scored, forwards, largest := reg.m.scored.Value(), reg.m.forwards.Value(), reg.m.batchSize.Quantile(1); scored != 18 || largest != 8 || forwards != 3 {
		t.Fatalf("coalescing: %d units over %d forwards, largest batch %v; want 18 over 3 with largest 8", scored, forwards, largest)
	}
}

// TestResidentBytesMatchServeModel is the memory-contract acceptance: an
// open snapshot's measured footprint tracks memmodel.ServeBytes within 2%,
// and holds no gradient accumulators.
func TestResidentBytesMatchServeModel(t *testing.T) {
	dir := t.TempDir()
	path, _ := trainAndSave(t, dir, 2)
	reg := newTestRegistry(t, Config{})
	e, err := reg.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range e.model.Params().List() {
		if p.Grad != nil {
			t.Fatalf("served model still holds a gradient accumulator for %s", p.Name)
		}
	}
	var shapes []memmodel.Shape
	for _, p := range e.model.Params().List() {
		shapes = append(shapes, memmodel.Shape{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols})
	}
	predicted := memmodel.ServeBytes(shapes)
	measured := float64(e.ResidentBytes())
	if dev := (predicted - measured) / measured; dev < -0.02 || dev > 0.02 {
		t.Fatalf("ServeBytes %v vs measured %v: deviation %+.2f%% exceeds 2%%",
			predicted, measured, dev*100)
	}
	// Sanity: the training checkpoint on disk is strictly larger than the
	// serving footprint (it also carries the AdamW moments).
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if float64(fi.Size()) < 2.5*measured {
		t.Fatalf("checkpoint %d bytes vs resident %v: optimizer state seems to have been loaded",
			fi.Size(), measured)
	}
}

// TestHotReload: re-saving a checkpoint at the same path swaps in the new
// generation on the next acquire; queries against the superseded entry are
// refused with the retryable sentinel.
func TestHotReload(t *testing.T) {
	dir := t.TempDir()
	path, _ := trainAndSave(t, dir, 2)
	reg := newTestRegistry(t, Config{})
	e1, err := reg.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Step != 2 || e1.Generation != 1 {
		t.Fatalf("first acquire: step %d gen %d", e1.Step, e1.Generation)
	}
	// Unchanged file → same entry, no reload.
	again, err := reg.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	if again != e1 || reg.Loads() != 1 {
		t.Fatalf("unchanged file reloaded (loads %d)", reg.Loads())
	}

	// Overwrite with a longer run, then force mtime and size to match the
	// old stat exactly: same architecture and optimizer mean an identical
	// byte count, and coarse filesystem timestamps can make two periodic
	// saves land in one tick. Only the inode check (os.SameFile) can tell
	// the files apart — the worst case a live training run can produce.
	old := e1.fi
	p2, _ := trainAndSave(t, dir, 5)
	if err := os.Rename(p2, path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Now(), old.ModTime()); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != old.Size() || !fi.ModTime().Equal(old.ModTime()) {
		t.Fatalf("test premise broken: stat %+v err %v should match the old size/mtime", fi, err)
	}

	e2, err := reg.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Step != 5 || e2.Generation != 2 {
		t.Fatalf("reloaded entry: step %d gen %d, want 5/2", e2.Step, e2.Generation)
	}
	if reg.Loads() != 2 {
		t.Fatalf("loads %d, want 2", reg.Loads())
	}
	// The superseded entry's executor drained; fresh queries on it are
	// refused with the sentinel WithEntry retries on.
	if _, err := e1.Perplexity(1, 2, 8); err != errClosed {
		t.Fatalf("stale-entry query error %v, want errClosed", err)
	}
	// WithEntry lands on the new generation.
	var step int
	if err := reg.WithEntry(path, func(e *Entry) error { step = e.Step; return nil }); err != nil {
		t.Fatal(err)
	}
	if step != 5 {
		t.Fatalf("WithEntry step %d, want 5", step)
	}
}

// TestLRUEviction: the registry holds at most MaxModels snapshots; the
// least recently acquired is evicted and transparently reloaded on demand.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, steps := range []int{1, 2, 3} {
		p, _ := trainAndSave(t, dir, steps)
		paths = append(paths, p)
	}
	reg := newTestRegistry(t, Config{MaxModels: 2})
	for _, p := range paths {
		if _, err := reg.Acquire(p); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(reg.Entries()); n != 2 {
		t.Fatalf("%d resident entries, want 2", n)
	}
	if reg.Evictions() != 1 {
		t.Fatalf("evictions %d, want 1", reg.Evictions())
	}
	// paths[0] was evicted (least recently used); acquiring it again
	// reloads it and evicts paths[1].
	loads := reg.Loads()
	e, err := reg.Acquire(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if e.Step != 1 {
		t.Fatalf("reloaded wrong snapshot: step %d", e.Step)
	}
	if reg.Loads() != loads+1 {
		t.Fatalf("loads %d, want %d", reg.Loads(), loads+1)
	}
	for _, got := range reg.Entries() {
		if got.Path == paths[1] {
			t.Fatal("paths[1] should be the evicted entry now")
		}
	}
}

// TestArchitectureMismatch: a checkpoint from a different architecture is
// refused with a parameter-table error, not served garbage.
func TestArchitectureMismatch(t *testing.T) {
	dir := t.TempDir()
	path, _ := trainAndSave(t, dir, 1)
	cfg := serveTestConfig()
	cfg.Dim = 16
	cfg.Hidden = 44
	reg := newTestRegistry(t, Config{Model: cfg})
	if _, err := reg.Acquire(path); err == nil {
		t.Fatal("mismatched architecture accepted")
	}
	if n := len(reg.Entries()); n != 0 {
		t.Fatalf("%d entries after failed load", n)
	}
}

// TestQueryValidation: malformed queries are rejected before they can
// reach (and panic) the executor.
func TestQueryValidation(t *testing.T) {
	dir := t.TempDir()
	path, _ := trainAndSave(t, dir, 1)
	reg := newTestRegistry(t, Config{})
	e, err := reg.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.LogProb([]int{1, 2}, []int{999}); err == nil {
		t.Fatal("out-of-vocab token accepted")
	}
	if _, err := e.LogProb(make([]int, 200), []int{1}); err == nil {
		t.Fatal("over-MaxSeq query accepted")
	}
	if _, err := e.Perplexity(4, 4, 1000); err == nil {
		t.Fatal("over-MaxSeq perplexity accepted")
	}
	// Resource bounds: a negative count must not yield a fabricated loss 0,
	// and an absurd batch count must not wedge the executor.
	if _, err := e.Perplexity(-1, 4, 8); err == nil {
		t.Fatal("negative batches accepted")
	}
	if _, err := e.Perplexity(1<<30, 4, 8); err == nil {
		t.Fatal("unbounded batches accepted")
	}
	if _, err := e.Perplexity(4, 1<<20, 8); err == nil {
		t.Fatal("unbounded batch size accepted")
	}
	// Degenerate but legal queries answer 0 without touching the model.
	if lp, err := e.LogProb(nil, nil); err != nil || lp != 0 {
		t.Fatalf("empty query → (%v, %v), want (0, nil)", lp, err)
	}
	// The service stays alive afterwards.
	if _, err := e.Perplexity(1, 2, 8); err != nil {
		t.Fatal(err)
	}
}

// TestFineTuneQueryDoesNotMutateServedModel: fine-tune queries train a
// clone; the served weights must stay bit-identical.
func TestFineTuneQueryDoesNotMutateServedModel(t *testing.T) {
	dir := t.TempDir()
	path, _ := trainAndSave(t, dir, 2)
	reg := newTestRegistry(t, Config{})
	e, err := reg.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	before := e.model.Params().List()[0].W.Clone()
	clone := e.CloneModel()
	task := data.GenerateFTTask(reg.cfg.Corpus.Source(), data.FTTaskConfig{
		Name: "probe", Train: 10, Test: 8, CtxLen: 8, Classes: 2, Noise: 0, Seed: 3,
	})
	acc := train.FineTune(clone, optim.NewSGD(optim.Hyper{LR: 1e-2}, 0.9), task, train.FineTuneConfig{
		Epochs: 1, Batch: 4, Seed: 4,
	})
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of bounds", acc)
	}
	if !e.model.Params().List()[0].W.Equal(before) {
		t.Fatal("fine-tune query mutated the served snapshot")
	}
	if clone.Params().List()[0].W.Equal(before) {
		t.Fatal("clone did not train")
	}
}
