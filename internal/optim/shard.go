// ZeRO-style state partitioning hooks (Rajbhandari et al., 2020; the
// state-sharding lineage of Anil et al., 2019). Every optimizer in this zoo
// keeps per-parameter state, so an external partitioner (internal/zero) can
// hand each replica a disjoint sub-slice of the parameter list and have each
// inner optimizer step only its shard. Two things make that bit-identical to
// an unsharded run:
//
//  1. Per-parameter independence: Step's update for a parameter reads only
//     that parameter's gradient and state. This holds for the whole zoo
//     (clipping, the one cross-parameter coupling, happens in the trainer
//     before Step).
//  2. Order-independent randomness: the projected optimizers (GaLore, Fira,
//     Flora, APOLLO — all one engine, Projected) draw one projector seed per
//     parameter from a shared RNG at first touch — in *step order*. A
//     sharded optimizer that only ever sees its shard would draw a different
//     seed sequence, so it must pre-walk the full list via StateSharder.
//
// This file holds the hook interfaces only. No optimizer answers
// StateIntrospector by hand: StateElemsFor is summed from the slots its
// Schema declares and RowSplittable is the schema's own declaration of the
// update, both derived by the StateTable every member embeds (state.go). The
// one StateSharder, the projected family's seed walk, is in projected.go.
package optim

import "apollo/internal/nn"

// StateSharder is the state-introspection hook for partitioned optimizers.
// PrepareShard walks the FULL parameter list in global order, consuming any
// order-dependent randomness exactly as an unsharded first Step would, but
// allocates state only for parameters where owned(p) is true. After
// PrepareShard, stepping only the owned sub-slice produces per-parameter
// updates bit-identical to the unsharded optimizer.
//
// Optimizers without order-dependent randomness (AdamW, SGD, Adam-mini)
// need no hook: their lazy per-parameter state is already subset-safe. The
// 8-bit variants are NOT shardable — stochastic rounding draws from a
// shared RNG on every step, so their updates depend on which parameters an
// instance steps.
type StateSharder interface {
	PrepareShard(all []*nn.Param, owned func(*nn.Param) bool)
}

// StateIntrospector describes an optimizer's per-parameter state without
// allocating it, so a partitioner can balance by actual state cost (the
// quantity ZeRO divides) instead of parameter size — for low-rank methods
// the two differ wildly: a dense-fallback embedding carries 2·mn state
// while a projected matrix of the same size carries only 2·nr.
type StateIntrospector interface {
	// StateElemsFor returns the resident state element count Step would
	// allocate for p.
	StateElemsFor(p *nn.Param) int64
	// RowSplittable reports whether Step's update for p is element-wise
	// (or per-row), so ownership of p may be split across row ranges with
	// bit-identical results. Projected parameters are never splittable —
	// their subspace statistics couple the whole matrix.
	RowSplittable(p *nn.Param) bool
}

// Segment is a row range [Row0, Row1) of the parameter at index Param in
// the Init list — the ownership granularity of the partitioned optimizer.
// Whole parameters are the common case (Row0=0, Row1=Rows); large
// element-wise parameters are split finer, mirroring ZeRO's flat
// partitioning, so no single tensor's state can unbalance the shards.
type Segment struct {
	Param      int
	Row0, Row1 int
}

// ShardedStepper is what a ZeRO-style wrapper (internal/zero) exposes to
// the data-parallel gradient stage beyond Optimizer: the partition of the
// parameter list into owner shards. Stepping stays Optimizer.Step — the
// wrapper runs every shard's inner optimizer concurrently itself — so the
// trainer needs the ownership map only to tree-broadcast each shard's
// updated weights from its owner replica and to report per-replica state.
type ShardedStepper interface {
	Optimizer
	// Init fixes the parameter list, partitions it and prepares the
	// per-shard inner optimizers. Idempotent for the same list.
	Init(all []*nn.Param)
	// Shards returns the number of owner shards.
	Shards() int
	// OwnedSegments returns the row segments owned by a shard, in
	// ascending (Param, Row0) order. Segments of distinct shards are
	// disjoint and together tile every parameter exactly once.
	OwnedSegments(shard int) []Segment
	// ReplicaStateBytes reports each shard's resident optimizer-state
	// footprint; the sum is the unsharded StateBytes.
	ReplicaStateBytes() []int64
}
