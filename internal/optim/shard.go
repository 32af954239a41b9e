// ZeRO-style state partitioning hooks (Rajbhandari et al., 2020; the
// state-sharding lineage of Anil et al., 2019). Every optimizer in this zoo
// keeps per-parameter state, so an external partitioner (internal/zero) can
// lay an ownership map over one optimizer's own state: which replica each
// parameter's (or row range's) state is charged to, and which replica
// publishes its stepped weights. The map only charges and broadcasts; the
// optimizer steps, saves and restores its own parameters. Two things make
// that partition sound:
//
//  1. Per-parameter independence: Step's update for a parameter reads only
//     that parameter's gradient and state. This holds for the whole zoo
//     (clipping, the one cross-parameter coupling, happens in the trainer
//     before Step), so an element-wise update's rows may be owned apart.
//  2. Randomness is keyed, not streamed: projector seeds, factor
//     initializations and stochastic-rounding noise are functions of the
//     member's seed, the parameter's name and its own counters
//     (tensor.Mix), so no draw depends on which units were stepped before
//     it. A randomized update is never row-splittable, so a unit that draws
//     is always the whole parameter.
//
// This file holds the hook interfaces only. No optimizer answers
// StateIntrospector by hand: StateBytesFor is measured from the entry its
// StateTable allocated and RowSplittable is the Schema's own declaration of
// the update, both derived by the StateTable every member embeds (state.go);
// WeightQuantized forwards to the optimizer it wraps.
package optim

import "apollo/internal/nn"

// StateIntrospector describes an optimizer's per-parameter state, so a
// partitioner can balance by actual state cost (the quantity ZeRO divides)
// instead of parameter size — for low-rank methods the two differ wildly: a
// dense-fallback embedding carries 2·mn state while a projected matrix of the
// same size carries only 2·nr.
type StateIntrospector interface {
	// StateBytesFor returns the bytes resident for p now, measured from the
	// allocated state (0 before first touch). Summed over the parameters
	// stepped so far it is Optimizer.StateBytes.
	StateBytesFor(p *nn.Param) int64
	// RowSplittable reports whether Step's update for p is element-wise
	// (or per-row), so ownership of p may be split across row ranges with
	// bit-identical results. Projected parameters are never splittable —
	// their subspace statistics couple the whole matrix.
	RowSplittable(p *nn.Param) bool
}

// Segment is a row range [Row0, Row1) of the parameter at index Param in
// the stepped list — the ownership granularity of the partitioned optimizer.
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
// wrapper's one inner optimizer steps the list itself — so the trainer needs
// the ownership map only to tree-broadcast each shard's updated weights from
// its owner replica and to report per-replica state.
// Because the first Step fixes the map from the list it is handed (once that
// step has allocated the state the map balances), the training loop steps a
// ShardedStepper over the whole list, never group by group, and asks for the
// map only after a step.
type ShardedStepper interface {
	Optimizer
	// Shards returns the number of owner shards.
	Shards() int
	// OwnedSegments returns the row segments owned by a shard, in
	// ascending (Param, Row0) order. Segments of distinct shards are
	// disjoint and together tile every parameter exactly once.
	OwnedSegments(shard int) []Segment
	// ReplicaStateBytes reports each shard's resident optimizer-state
	// footprint — a split unit is charged its row share of the parameter's
	// state; the sum is the unsharded StateBytes.
	ReplicaStateBytes() []int64
}
