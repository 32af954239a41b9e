package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"sync"
	"testing"

	"apollo/internal/ckpt"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/runtime"
	"apollo/internal/tensor"
	"apollo/internal/zero"
)

// The step contracts of the method catalogue. However a run lays out its
// list — cut at any prefix, handed over in groups, sharded across ZeRO
// owners, walked at any pool width — every row must step to the same bits as
// one whole-list Step: the weights, everything a checkpoint captures (every
// ParamState field, the Sub chain and Blobs included), the name it is
// captured under and the state's footprint. Each contract below is a table of
// schedules, each checked against one whole-list reference run per row and
// parameter list, computed once per test binary. Every run sees the same
// gradient stream over 52 steps: first touches (seed draws, factor
// initializations) happen on step 1, and the catalogue's refresh gap and
// ReLoRA's merge period are both 50, so the subspace refresh and the restart
// redraw happen on step 51.

// shardParityParams is a small mixed list: an embedding and vectors (dense
// fallbacks, row-splittable under most rows), and wide, tall and square
// matrices on both sides of the rank.
func shardParityParams() []*nn.Param {
	rng := tensor.NewRNG(5)
	mk := func(name string, kind nn.ParamKind, rows, cols int) *nn.Param {
		return nn.NewParam(name, kind, tensor.NewMatrixRand(rows, cols, 0.1, rng))
	}
	return []*nn.Param{
		mk("embed", nn.KindEmbedding, 64, 16),
		mk("norm1", nn.KindVector, 1, 16),
		mk("square", nn.KindMatrix, 16, 16),
		mk("tall", nn.KindMatrix, 40, 16),
		mk("wide", nn.KindMatrix, 16, 40),
		mk("norm2", nn.KindVector, 1, 16),
		mk("head", nn.KindMatrix, 64, 16),
	}
}

// widthParams is shardParityParams plus a matrix and an embedding large
// enough that, for every row, both the walk over the covered parameters and
// the fallback's fan out on the pool.
func widthParams() []*nn.Param {
	rng := tensor.NewRNG(91)
	return append(shardParityParams(),
		nn.NewParam("big", nn.KindMatrix, tensor.NewMatrixRand(96, 48, 0.1, rng)),
		nn.NewParam("vocab", nn.KindEmbedding, tensor.NewMatrixRand(96, 48, 0.1, rng)))
}

var (
	shardList = newContractList(shardParityParams)
	widthList = newContractList(widthParams)
)

// contractList is a parameter list with its gradient stream and its
// reference runs, each made once per test binary on first use.
type contractList struct {
	params func() []*nn.Param
	grads  func() [][][]float32 // per step, per parameter

	mu   sync.Mutex
	refs map[string]stepRun // row name → its whole-list run
}

func newContractList(params func() []*nn.Param) *contractList {
	return &contractList{
		params: params,
		grads: sync.OnceValue(func() [][][]float32 {
			const steps = 52
			grads := make([][][]float32, steps)
			for s := range grads {
				rng := tensor.NewRNG(uint64(s)*7919 + 13)
				for _, p := range params() {
					g := make([]float32, len(p.Grad.Data))
					for i := range g {
						g[i] = rng.NormFloat32() * 0.05
					}
					grads[s] = append(grads[s], g)
				}
			}
			return grads
		}),
		refs: map[string]stepRun{},
	}
}

// schedule is one way of laying out a run: the pool width it runs at, how
// its optimizer wraps the row's, and how each step hands over the list.
type schedule struct {
	name    string
	workers int                                   // 0: the width as it stands
	wrap    func(optim.Optimizer) optim.Optimizer // nil: the row's optimizer
	step    func(optim.Optimizer, []*nn.Param)    // nil: one whole-list Step
}

// inGroups steps the list as one Step per group of indices, in order.
func inGroups(groups ...[]int) func(optim.Optimizer, []*nn.Param) {
	return func(opt optim.Optimizer, ps []*nn.Param) {
		for _, g := range groups {
			group := make([]*nn.Param, len(g))
			for k, i := range g {
				group[k] = ps[i]
			}
			opt.Step(group)
		}
	}
}

// span is the indices [lo, hi).
func span(lo, hi int) []int {
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return idx
}

// stepRun is what a run leaves that the contracts compare.
type stepRun struct {
	name         string // the optimizer a checkpoint records
	stateBytes   int64
	replicaBytes int64    // Σ ReplicaStateBytes under ZeRO, else StateBytes
	params       []string // per parameter: its name,
	weights      []string // the digest of its weights,
	states       []string // and the digest of its captured state
}

// run steps the row over the list under sc.
func (l *contractList) run(t *testing.T, m Method, sc schedule) stepRun {
	t.Helper()
	if sc.workers > 0 {
		defer runtime.SetWorkers(runtime.Workers())
		runtime.SetWorkers(sc.workers)
	}
	opt := m.New(optim.Hyper{LR: 0.01, WeightDecay: 0.1}, m.Rank(4, 16), 11)
	if sc.wrap != nil {
		opt = sc.wrap(opt)
	}
	ps := l.params()
	for _, step := range l.grads() {
		for i, p := range ps {
			copy(p.Grad.Data, step[i])
		}
		if sc.step != nil {
			sc.step(opt, ps)
		} else {
			opt.Step(ps)
		}
	}
	r := stepRun{name: ckpt.Name(opt), stateBytes: opt.StateBytes(), replicaBytes: opt.StateBytes()}
	if sh, ok := opt.(optim.ShardedStepper); ok {
		r.replicaBytes = 0
		for _, b := range sh.ReplicaStateBytes() {
			r.replicaBytes += b
		}
	}
	for _, p := range ps {
		st, err := opt.CaptureParam(p)
		if err != nil {
			t.Fatalf("%s: capture %s: %v", m.Name, p.Name, err)
		}
		r.params = append(r.params, p.Name)
		r.weights = append(r.weights, digest(func(h hash.Hash) { hashMatrices(h, []*tensor.Matrix{p.W}) }))
		r.states = append(r.states, digest(func(h hash.Hash) { hashState(h, st) }))
	}
	return r
}

// reference is the row's whole-list run over the list.
func (l *contractList) reference(t *testing.T, m Method) stepRun {
	l.mu.Lock()
	defer l.mu.Unlock()
	ref, ok := l.refs[m.Name]
	if !ok {
		ref = l.run(t, m, schedule{})
		l.refs[m.Name] = ref
	}
	return ref
}

// check runs every schedule as a subtest of t and holds it to the row's
// reference.
func (l *contractList) check(t *testing.T, m Method, schedules []schedule) {
	want := l.reference(t, m)
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			got := l.run(t, m, sc)
			var diffs []string
			if got.name != want.name {
				diffs = append(diffs, fmt.Sprintf("captured as %q", got.name))
			}
			if got.stateBytes != want.stateBytes || got.replicaBytes != want.stateBytes {
				diffs = append(diffs, fmt.Sprintf("replicas hold %d bytes, the optimizer reports %d", got.replicaBytes, got.stateBytes))
			}
			for i, p := range got.params {
				if got.weights[i] != want.weights[i] {
					diffs = append(diffs, "weights of "+p)
				}
				if got.states[i] != want.states[i] {
					diffs = append(diffs, "captured state of "+p)
				}
			}
			if len(diffs) > 0 {
				t.Errorf("differs from the whole-list run (%q, %d bytes) in %d places, first %v",
					want.name, want.stateBytes, len(diffs), diffs[:min(3, len(diffs))])
			}
		})
	}
}

// TestStepIsPrefixSplittable is the order contract of the one list walk
// (optim.Base.Walk): stepping a list as two consecutive pieces —
// Step(ps[:k]); Step(ps[k:]) — is Step(ps), wherever the cut falls: after
// the embedding, between two projected matrices, before the last vector. It
// is what zero.Sharded leans on when it hands its inner optimizer one
// shard's units at a time, and what a layer-wise loop that steps block by
// block would.
func TestStepIsPrefixSplittable(t *testing.T) {
	n := len(shardParityParams())
	var schedules []schedule
	for k := 1; k < n; k++ {
		schedules = append(schedules, schedule{name: fmt.Sprintf("k=%d", k), step: inGroups(span(0, k), span(k, n))})
	}
	for _, m := range Methods() {
		t.Run(m.Name, func(t *testing.T) { shardList.check(t, m, schedules) })
	}
}

// TestStepIsOrderFree: stepping shardParityParams in groups shaped like the
// ones nn.Model.BackwardRelease hands out — [norm2, head], the middle last to
// first, [embed] — or as the whole list reversed, from the very first step,
// is stepping it whole. A member's random draws are keyed by its seed and the
// parameter's name, never by how many draws came before. A real model's
// release groups reach every row through the loop in
// TestCatalogueLendingParity. The one wrapper the training loop does not hand
// groups to is zero.Sharded, whose ownership map is fixed from the whole list
// (train.TestReleaseGroupsReachStep).
func TestStepIsOrderFree(t *testing.T) {
	schedules := []schedule{
		{name: "release", step: inGroups([]int{5, 6}, []int{3, 4}, []int{1, 2}, []int{0})},
		{name: "reversed", step: inGroups([]int{6, 5, 4, 3, 2, 1, 0})},
	}
	for _, m := range Methods() {
		// "order-free=true" keeps the subtest IDs this test has always printed.
		t.Run(m.Name+"/order-free=true", func(t *testing.T) { shardList.check(t, m, schedules) })
	}
}

// TestCatalogueShardedParity is the ZeRO contract: stepping through
// zero.Sharded at 2, 3 and 4 shards leaves the weights and every captured
// state bit-equal to the unsharded optimizer's, captured under its name, with
// per-replica bytes that sum to its StateBytes. The step-51 refresh and
// restart happen under the partition.
func TestCatalogueShardedParity(t *testing.T) {
	var schedules []schedule
	for _, n := range []int{2, 3, 4} {
		schedules = append(schedules, schedule{
			name: fmt.Sprintf("shards=%d", n),
			wrap: func(opt optim.Optimizer) optim.Optimizer { return zero.NewSharded(opt, n) },
		})
	}
	for _, m := range Methods() {
		t.Run(m.Name, func(t *testing.T) { shardList.check(t, m, schedules) })
	}
}

// TestCatalogueWidthIndependent is the pool-width contract. Every member
// steps its covered parameters concurrently on the shared pool
// (optim.Base.Walk), and nothing a parameter's update reads belongs to
// another parameter, so widths 1–4 must not reach a single bit — fused, and
// under ZeRO, whose one optimizer steps the whole list. Every width runs on
// every repetition of the test; only the reference is shared.
func TestCatalogueWidthIndependent(t *testing.T) {
	var schedules []schedule
	for _, mode := range []struct {
		name string
		wrap func(optim.Optimizer) optim.Optimizer
	}{
		{"fused", nil},
		{"zero-3", func(opt optim.Optimizer) optim.Optimizer { return zero.NewSharded(opt, 3) }},
	} {
		for w := 1; w <= 4; w++ {
			schedules = append(schedules, schedule{name: fmt.Sprintf("%s/workers=%d", mode.name, w), workers: w, wrap: mode.wrap})
		}
	}
	for _, m := range Methods() {
		t.Run(m.Name, func(t *testing.T) { widthList.check(t, m, schedules) })
	}
}

// TestSharedCheckpointNamesStepAlike: ckpt.Restore resumes a snapshot under
// any optimizer of the same checkpoint name and state layout, so two rows it
// lets one resume as the other must be one update. Each row steps the list
// twice and is captured; every row of the same name restores that snapshot
// onto a fresh list, and both take the third gradient to the same bits.
func TestSharedCheckpointNamesStepAlike(t *testing.T) {
	h := optim.Hyper{LR: 0.01, WeightDecay: 0.1}
	grads := shardList.grads()
	build := func(m Method) optim.Optimizer { return m.New(h, m.Rank(4, 16), 11) }
	stepOnce := func(opt optim.Optimizer, ps []*nn.Param, step int) {
		for i, p := range ps {
			copy(p.Grad.Data, grads[step][i])
		}
		opt.Step(ps)
	}
	// third steps opt from its state and returns its weights and states.
	third := func(opt optim.Optimizer, ps []*nn.Param) stepRun {
		stepOnce(opt, ps, 2)
		var r stepRun
		for _, p := range ps {
			st, err := opt.CaptureParam(p)
			if err != nil {
				t.Fatal(err)
			}
			r.weights = append(r.weights, digest(func(h hash.Hash) { hashMatrices(h, []*tensor.Matrix{p.W}) }))
			r.states = append(r.states, digest(func(h hash.Hash) { hashState(h, st) }))
		}
		return r
	}
	rows := Methods()
	for i, a := range rows {
		for _, b := range rows[i+1:] {
			if ckpt.Name(build(a)) != ckpt.Name(build(b)) {
				continue
			}
			src, ps := build(a), shardList.params()
			stepOnce(src, ps, 0)
			stepOnce(src, ps, 1)
			snap, err := ckpt.Capture(2, ps, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			dst, qs := build(b), shardList.params()
			if ckpt.Restore(snap, qs, dst, nil) != nil {
				continue // a layout the other row refuses: nothing resumes wrongly
			}
			want, got := third(src, ps), third(dst, qs)
			if !slices.Equal(got.weights, want.weights) || !slices.Equal(got.states, want.states) {
				t.Errorf("%s and %s are both checkpointed as %q and resume each other's snapshots, but step differently",
					a.Name, b.Name, snap.Optimizer)
			}
		}
	}
}

func digest(write func(hash.Hash)) string {
	h := sha256.New()
	write(h)
	return hex.EncodeToString(h.Sum(nil))
}

// hashState hashes every field of a captured state down its Sub chain; a nil
// state hashes nothing.
func hashState(h hash.Hash, st *optim.ParamState) {
	for ; st != nil; st = st.Sub {
		hashU64(h, uint64(len(st.Scalars)))
		for _, s := range st.Scalars {
			hashU64(h, s)
		}
		hashMatrices(h, st.RowMats)
		hashMatrices(h, st.Whole)
		hashU64(h, uint64(len(st.Blobs)))
		for _, b := range st.Blobs {
			hashU64(h, uint64(len(b)))
			h.Write(b)
		}
	}
}

func hashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashMatrices(h hash.Hash, ms []*tensor.Matrix) {
	hashU64(h, uint64(len(ms)))
	for _, m := range ms {
		hashU64(h, uint64(m.Rows)<<32|uint64(m.Cols))
		for _, f := range m.Data {
			hashU64(h, uint64(math.Float32bits(f)))
		}
	}
}
