// Package zero implements ZeRO-style sharded optimizer states (Rajbhandari
// et al., 2020) on top of the data-parallel trainer: the remaining
// optimizer state — already shrunk by APOLLO's rank reduction — is
// partitioned across the DP replicas so each holds only ~1/N of it.
//
// Sharded wraps any optim.Optimizer constructor. Ownership is partitioned
// at row-segment granularity: parameters whose update the inner optimizer
// reports as element-wise (optim.StateIntrospector.RowSplittable — dense
// AdamW state, embeddings, SGD velocity) may be split across row ranges,
// mirroring ZeRO's flat partitioning, while projected parameters (whose
// subspace statistics couple the whole matrix) stay whole. Units are
// weighted by introspected state cost, so the thing that actually gets
// balanced is the footprint ZeRO divides — not parameter count. Each shard
// gets its own inner optimizer instance that steps only the owned
// segments; updated weights then flow to the other replicas via the same
// balanced-tree pattern the data-parallel stage uses for gradients (see
// internal/train/dp.go).
//
// Determinism contract. Sharded stepping is bit-identical to the unsharded
// inner optimizer whenever (1) the inner update for a parameter depends
// only on that parameter's own gradient and state — true across the zoo —
// with row splits applied only where the update is element- or row-wise,
// and (2) any order-dependent randomness is consumed in global parameter
// order, which the optim.StateSharder hook restores for the
// seeded-projection methods (GaLore, Fira, Flora, APOLLO). Consequently
// `-replicas N -zero` reproduces `-replicas 1` float-for-float while each
// replica's measured StateBytes is ~1/N of the unsharded footprint
// (enforced by TestShardedStepParity and train.TestZeroDPParity). The
// 8-bit optimizers are the exception: their stochastic rounding draws from
// a shared per-step RNG, so they stay exact only at one shard.
package zero

import (
	"fmt"
	"sync"

	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// rowView wraps rows of a row-major matrix as a matrix sharing the backing
// storage — writes through the view land in the original tensor.
func rowView(m *tensor.Matrix, rows, lo, hi int) *tensor.Matrix {
	return &tensor.Matrix{Rows: rows, Cols: m.Cols, Data: m.Data[lo:hi]}
}

// Sharded partitions optimizer state across N owner shards. It implements
// optim.Optimizer (Step runs every shard concurrently, so it is a drop-in
// replacement under any gradient stage) and optim.ShardedStepper (the
// ownership map the data-parallel stage tree-broadcasts stepped weights by).
type Sharded struct {
	inner []optim.Optimizer
	n     int

	all   []*nn.Param
	segs  []optim.Segment // all ownership units, ascending (Param, Row0)
	views []*nn.Param     // view param per unit (aliases the unit's rows)
	parts [][]int         // per-shard unit indices
	owned [][]*nn.Param   // per-shard view params, what StepShard steps
	ready bool

	// Checkpoint gather/scatter indexes (built by Init).
	ownerOf      []int             // unit index → owning shard
	unitsByParam [][]int           // param index → unit indices, ascending Row0
	paramIndex   map[*nn.Param]int // original param pointer → index in all
}

// NewSharded builds a wrapper with one inner optimizer per shard. The
// constructor must return a fresh, identically configured instance on every
// call (same seeds — the StateSharder walk, not the constructor, is what
// differentiates the shards).
func NewSharded(build func() optim.Optimizer, replicas int) *Sharded {
	if replicas < 1 {
		replicas = 1
	}
	s := &Sharded{inner: make([]optim.Optimizer, replicas), n: replicas}
	for i := range s.inner {
		s.inner[i] = build()
	}
	return s
}

// viewOf materializes a Segment as a parameter aliasing the rows
// [Row0, Row1) of p — weight and gradient share p's backing storage, so
// stepping the view steps those rows of p in place. A whole-parameter
// segment returns p itself (projected optimizers key their state on the
// original pointer).
func viewOf(p *nn.Param, seg optim.Segment) *nn.Param {
	if seg.Row0 == 0 && seg.Row1 == p.W.Rows {
		return p
	}
	rows := seg.Row1 - seg.Row0
	lo, hi := seg.Row0*p.W.Cols, seg.Row1*p.W.Cols
	return &nn.Param{
		Name: fmt.Sprintf("%s[%d:%d]", p.Name, seg.Row0, seg.Row1),
		Kind: p.Kind,
		W:    rowView(p.W, rows, lo, hi),
		Grad: rowView(p.Grad, rows, lo, hi),
	}
}

// Init implements optim.ShardedStepper: build the ownership units,
// partition them by introspected state cost and prepare each shard's inner
// optimizer. Idempotent for the same list; a Sharded instance is bound to
// one parameter list for its lifetime.
func (s *Sharded) Init(all []*nn.Param) {
	if s.ready {
		if len(all) != len(s.all) || (len(all) > 0 && all[0] != s.all[0]) {
			panic("zero: Sharded re-initialized with a different parameter list")
		}
		return
	}
	s.all = all
	intro, _ := s.inner[0].(optim.StateIntrospector)

	// Build units: whole parameters by default; element-wise parameters
	// split into up to N balanced row chunks so no single tensor's state
	// can unbalance the shards (ZeRO's flat-partition property at row
	// granularity).
	for i, p := range all {
		chunks := 1
		if intro != nil && intro.RowSplittable(p) && s.n > 1 {
			chunks = s.n
			if chunks > p.W.Rows {
				chunks = p.W.Rows
			}
		}
		for c := 0; c < chunks; c++ {
			seg := optim.Segment{
				Param: i,
				Row0:  c * p.W.Rows / chunks,
				Row1:  (c + 1) * p.W.Rows / chunks,
			}
			s.segs = append(s.segs, seg)
			s.views = append(s.views, viewOf(p, seg))
		}
	}

	// Weight units by state cost (the quantity ZeRO balances), with the
	// unit's element count as a minor tiebreaker so zero-state methods
	// still spread their weight-broadcast payload.
	weights := make([]int64, len(s.views))
	for u, v := range s.views {
		cost := int64(v.NumEl())
		if intro != nil {
			cost = intro.StateElemsFor(v)*256 + int64(v.NumEl())
		}
		weights[u] = cost
	}
	s.parts = PartitionWeighted(weights, s.n)

	// Index ownership for the checkpoint gather/scatter paths: which shard
	// owns each unit, and which units tile each parameter.
	s.ownerOf = make([]int, len(s.segs))
	for shard, units := range s.parts {
		for _, u := range units {
			s.ownerOf[u] = shard
		}
	}
	s.unitsByParam = make([][]int, len(all))
	for u, seg := range s.segs {
		s.unitsByParam[seg.Param] = append(s.unitsByParam[seg.Param], u)
	}
	s.paramIndex = make(map[*nn.Param]int, len(all))
	for i, p := range all {
		s.paramIndex[p] = i
	}

	s.owned = make([][]*nn.Param, s.n)
	for shard, units := range s.parts {
		own := make(map[*nn.Param]bool, len(units))
		for _, u := range units {
			own[s.views[u]] = true
			s.owned[shard] = append(s.owned[shard], s.views[u])
		}
		if sh, ok := s.inner[shard].(optim.StateSharder); ok {
			// Whole-parameter units reuse the original pointer, so the
			// global walk sees owned projectable params; split units are
			// never projectable and allocate their dense state lazily.
			sh.PrepareShard(all, func(p *nn.Param) bool { return own[p] })
		}
	}
	s.ready = true
}

// Shards implements optim.ShardedStepper.
func (s *Sharded) Shards() int { return s.n }

// OwnedSegments implements optim.ShardedStepper.
func (s *Sharded) OwnedSegments(shard int) []optim.Segment {
	out := make([]optim.Segment, len(s.parts[shard]))
	for i, u := range s.parts[shard] {
		out[i] = s.segs[u]
	}
	return out
}

// StepShard runs one shard's inner optimizer on its owned segments. Shards
// own disjoint rows and separate inner optimizers, so concurrent calls for
// distinct shards are race-free — which is how Step runs them.
func (s *Sharded) StepShard(shard int) {
	if !s.ready {
		panic("zero: StepShard before Init")
	}
	s.inner[shard].Step(s.owned[shard])
}

// Step implements optim.Optimizer: initialize on first use, then run every
// shard concurrently. Bit-identical to the unsharded inner optimizer (see
// the package contract) under the fused and the data-parallel gradient stage
// alike.
func (s *Sharded) Step(ps []*nn.Param) {
	s.Init(ps)
	var wg sync.WaitGroup
	for shard := 0; shard < s.n; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			s.StepShard(shard)
		}(shard)
	}
	wg.Wait()
}

// Name implements optim.Optimizer.
func (s *Sharded) Name() string {
	return fmt.Sprintf("%s+ZeRO%d", s.inner[0].Name(), s.n)
}

// SetLR implements optim.Optimizer.
func (s *Sharded) SetLR(lr float64) {
	for _, o := range s.inner {
		o.SetLR(lr)
	}
}

// LR implements optim.Optimizer.
func (s *Sharded) LR() float64 { return s.inner[0].LR() }

// StateBytes implements optim.Optimizer: the aggregate footprint across all
// shards — what one unsharded instance would hold.
func (s *Sharded) StateBytes() int64 {
	var total int64
	for _, o := range s.inner {
		total += o.StateBytes()
	}
	return total
}

// ReplicaStateBytes implements optim.ShardedStepper: each shard's resident
// footprint, the number the paper-style memory tables care about per GPU.
func (s *Sharded) ReplicaStateBytes() []int64 {
	out := make([]int64, s.n)
	for i, o := range s.inner {
		out[i] = o.StateBytes()
	}
	return out
}
