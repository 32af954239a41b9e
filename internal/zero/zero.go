// Package zero implements ZeRO-style sharded optimizer states (Rajbhandari
// et al., 2020) on top of the data-parallel trainer: the remaining
// optimizer state — already shrunk by APOLLO's rank reduction — is
// partitioned across the DP replicas so each holds only ~1/N of it.
//
// Sharded is a partition of one optimizer's state, not N optimizers (the
// state-sharding idea of Anil et al., 2019, needs no more): an ownership
// map over a single inner optim.Optimizer. Ownership is partitioned at
// row-segment granularity: parameters whose update the inner optimizer
// reports as element-wise (optim.StateIntrospector.RowSplittable — dense
// AdamW state, embeddings, SGD velocity) may be split across row ranges,
// mirroring ZeRO's flat partitioning, while projected parameters (whose
// subspace statistics couple the whole matrix) stay whole. Units are
// weighted by introspected state cost, so the thing that actually gets
// balanced is the footprint ZeRO divides — not parameter count. A step
// hands the inner optimizer every unit in ascending (Param, Row0) order;
// what the map decides is which replica each unit's state is charged to
// (ReplicaStateBytes) and which replica broadcasts its stepped rows to the
// others, via the same balanced-tree pattern the data-parallel stage uses
// for gradients (see internal/train/dp.go).
//
// Determinism contract. Every random draw of a member is keyed by its seed
// and the parameter's name (tensor.Mix), so it does not matter which units
// are stepped before it, and a row split is applied only where the update is
// element- or row-wise — never where it draws. Sharded stepping is therefore
// bit-identical to the inner optimizer stepping the list itself, for every
// member of the zoo, by construction: `-replicas N -zero` reproduces
// `-replicas 1` float-for-float — weights and captured state — while each
// replica is charged ~1/N of the measured footprint
// (bench.TestCatalogueShardedParity ranges the contract over the method
// catalogue; TestShardedStepParity and train.TestZeroDPParity pin it here and
// through the trainer). The ownership map is fixed from the whole list at the
// first Step, which is why the training loop hands a Sharded optimizer the
// whole list rather than the groups backward releases.
package zero

import (
	"fmt"

	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// rowView wraps rows of a row-major matrix as a matrix sharing the backing
// storage — writes through the view land in the original tensor.
func rowView(m *tensor.Matrix, rows, lo, hi int) *tensor.Matrix {
	return &tensor.Matrix{Rows: rows, Cols: m.Cols, Data: m.Data[lo:hi]}
}

// shardable is what a partition needs of the optimizer it is laid over: the
// update, and per-parameter answers about the state behind it.
type shardable interface {
	optim.Optimizer
	optim.StateIntrospector
}

// Sharded partitions one optimizer's state across N owner shards. It
// implements optim.Optimizer (a drop-in replacement under any gradient
// stage) and optim.ShardedStepper (the ownership map the data-parallel
// stage tree-broadcasts stepped weights by).
type Sharded struct {
	inner shardable
	n     int

	all   []*nn.Param
	segs  []optim.Segment // all ownership units, ascending (Param, Row0)
	views []*nn.Param     // view param per unit (aliases the unit's rows); what Step steps
	parts [][]int         // per-shard unit indices
	owned [][]*nn.Param   // per-shard view params
	ready bool

	// Checkpoint gather/scatter indexes (built by Init).
	unitsByParam [][]int           // param index → unit indices, ascending Row0
	paramIndex   map[*nn.Param]int // original param pointer → index in all
}

// NewSharded lays an N-shard ownership map over inner, which must also
// implement optim.StateIntrospector (every member of the zoo does): a
// partition by state needs per-parameter answers about that state.
func NewSharded(inner optim.Optimizer, shards int) *Sharded {
	sh, ok := inner.(shardable)
	if !ok {
		panic(fmt.Sprintf("zero: %s does not implement optim.StateIntrospector", inner.Name()))
	}
	if shards < 1 {
		shards = 1
	}
	return &Sharded{inner: sh, n: shards}
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

// Init implements optim.ShardedStepper: build the ownership units and
// partition them by introspected state cost. Idempotent for the same list;
// a Sharded instance is bound to one parameter list for its lifetime.
func (s *Sharded) Init(all []*nn.Param) {
	if s.ready {
		if len(all) != len(s.all) || (len(all) > 0 && all[0] != s.all[0]) {
			panic("zero: Sharded re-initialized with a different parameter list")
		}
		return
	}
	s.all = all

	// Build units: whole parameters by default; element-wise parameters
	// split into up to N balanced row chunks so no single tensor's state
	// can unbalance the shards (ZeRO's flat-partition property at row
	// granularity).
	for i, p := range all {
		chunks := 1
		if s.inner.RowSplittable(p) && s.n > 1 {
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
		weights[u] = s.inner.StateElemsFor(v)*256 + int64(v.NumEl())
	}
	s.parts = PartitionWeighted(weights, s.n)

	s.owned = make([][]*nn.Param, s.n)
	for shard, units := range s.parts {
		for _, u := range units {
			s.owned[shard] = append(s.owned[shard], s.views[u])
		}
	}

	// Index the units tiling each parameter for the checkpoint
	// gather/scatter paths.
	s.unitsByParam = make([][]int, len(all))
	for u, seg := range s.segs {
		s.unitsByParam[seg.Param] = append(s.unitsByParam[seg.Param], u)
	}
	s.paramIndex = make(map[*nn.Param]int, len(all))
	for i, p := range all {
		s.paramIndex[p] = i
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

// StepShard steps only one shard's owned segments: one replica's share of
// the step's work, which is what a probe times.
func (s *Sharded) StepShard(shard int) {
	if !s.ready {
		panic("zero: StepShard before Init")
	}
	s.inner.Step(s.owned[shard])
}

// Step implements optim.Optimizer: initialize on first use, then hand the
// inner optimizer every unit in ascending (Param, Row0) order. Bit-identical
// to the inner optimizer stepping ps itself (see the package contract) under
// the fused and the data-parallel gradient stage alike.
func (s *Sharded) Step(ps []*nn.Param) {
	s.Init(ps)
	s.inner.Step(s.views)
}

// Name implements optim.Optimizer.
func (s *Sharded) Name() string {
	return fmt.Sprintf("%s+ZeRO%d", s.inner.Name(), s.n)
}

// SetLR implements optim.Optimizer.
func (s *Sharded) SetLR(lr float64) { s.inner.SetLR(lr) }

// LR implements optim.Optimizer.
func (s *Sharded) LR() float64 { return s.inner.LR() }

// StateBytes implements optim.Optimizer: the aggregate footprint across all
// shards, which is the inner optimizer's own.
func (s *Sharded) StateBytes() int64 { return s.inner.StateBytes() }

// ReplicaStateBytes implements optim.ShardedStepper: each shard's resident
// footprint — the measured bytes behind the units it owns — the number the
// paper-style memory tables care about per GPU.
func (s *Sharded) ReplicaStateBytes() []int64 {
	out := make([]int64, s.n)
	for shard, vs := range s.owned {
		for _, v := range vs {
			out[shard] += s.inner.StateBytesFor(v)
		}
	}
	return out
}
