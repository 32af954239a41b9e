// Package zero implements ZeRO-style sharded optimizer states (Rajbhandari
// et al., 2020) on top of the data-parallel trainer: the remaining
// optimizer state — already shrunk by APOLLO's rank reduction — is
// partitioned across the DP replicas so each holds only ~1/N of it.
//
// Sharded is a partition of one optimizer's state, not N optimizers (the
// state-sharding idea of Anil et al., 2019, needs no more): an ownership
// map laid over a single inner optim.Optimizer that runs unwrapped. The
// state stays the inner optimizer's own, one entry per parameter; the map
// only charges and broadcasts. Ownership is partitioned at row-segment
// granularity: parameters whose update the inner optimizer reports as
// element-wise (optim.StateIntrospector.RowSplittable — dense AdamW state,
// embeddings, SGD velocity) may be split across row ranges, mirroring ZeRO's
// flat partitioning, while projected parameters (whose subspace statistics
// couple the whole matrix) stay whole. Units are weighted by the measured
// bytes each one is charged (StateBytesFor), so the thing that actually gets
// balanced is the footprint ZeRO divides, at whatever width each slot keeps —
// not parameter count, nor an element count that prices an INT8 code like an
// fp32 float. What the map decides is which replica each
// unit's state is charged to (ReplicaStateBytes) and which replica
// broadcasts its stepped rows to the others, via the same balanced-tree
// pattern the data-parallel stage uses for gradients (see
// internal/train/dp.go).
//
// Determinism contract. A step is the inner optimizer's Step over the list
// itself — its one walk (optim.Base.Walk), which steps the parameters
// concurrently on the shared pool — so `-replicas N -zero` reproduces
// `-replicas 1` float-for-float, weights and captured state, at any pool
// width, while each replica is charged ~1/N of the measured footprint.
// internal/bench's step-contract harness checks it on every row of the method
// catalogue: weights, captured state, checkpoint name and per-replica bytes
// at 2, 3 and 4 shards (bench.TestCatalogueShardedParity), and at pool widths
// 1–4 under 3 shards (bench.TestCatalogueWidthIndependent);
// TestShardedStepParity and TestGatherMatchesUnshardedCapture pin it here on
// eight families at a short projector refresh gap, and train.TestZeroDPParity
// checks it through the trainer. Capture and restore
// are the inner optimizer's too, so a checkpoint never mentions the world
// size: a `-replicas N -zero` snapshot resumes under any `-replicas M -zero`
// or unsharded (train.TestElasticReshardParity). The ownership map is fixed from
// the whole list at the end of the first Step, once every parameter's state
// is allocated and can be measured, which is why the training loop hands a
// Sharded optimizer the whole list rather than the groups backward releases.
package zero

import (
	"fmt"

	"apollo/internal/nn"
	"apollo/internal/optim"
)

// shardable is what a partition needs of the optimizer it is laid over: the
// update, and per-parameter answers about the state behind it.
type shardable interface {
	optim.Optimizer
	optim.StateIntrospector
}

// Sharded partitions one optimizer's state across N owner shards. It
// implements optim.Optimizer (a drop-in replacement under any gradient
// stage) and optim.ShardedStepper (the ownership map the data-parallel
// stage tree-broadcasts stepped weights by). Everything but Step, Name and
// CheckpointName — LR, state capture and restore, footprint and
// introspection — is the inner optimizer's, promoted through the embedding.
type Sharded struct {
	shardable // the inner optimizer, stepping its own parameters
	n         int

	all   []*nn.Param
	segs  []optim.Segment // all ownership units, ascending (Param, Row0)
	parts [][]int         // per-shard unit indices; nil until the first Step returns
}

// NewSharded lays an N-shard ownership map over inner, which must also
// implement optim.StateIntrospector (every member of the zoo does): a
// partition by state needs per-parameter answers about that state.
func NewSharded(inner optim.Optimizer, shards int) *Sharded {
	sh, ok := inner.(shardable)
	if !ok {
		panic(fmt.Sprintf("zero: %s does not implement optim.StateIntrospector", inner.Name()))
	}
	return &Sharded{shardable: sh, n: max(shards, 1)}
}

// share is a unit's exact part of a per-parameter total. Only row-splittable
// parameters are split, and their state is row-aligned, so the total divides.
func share(total int64, seg optim.Segment, rows int) int64 {
	return total * int64(seg.Row1-seg.Row0) / int64(rows)
}

// partition builds the ownership units of all and balances them by the bytes
// each is charged. It runs once, after the first Step has allocated every
// parameter's state; a Sharded instance is bound to that list for its
// lifetime.
func (s *Sharded) partition(all []*nn.Param) {
	s.all = all

	// Build units: whole parameters by default; element-wise parameters
	// split into up to N balanced row chunks so no single tensor's state
	// can unbalance the shards (ZeRO's flat-partition property at row
	// granularity).
	for i, p := range all {
		chunks := 1
		if s.n > 1 && s.RowSplittable(p) {
			chunks = min(s.n, p.W.Rows)
		}
		for c := 0; c < chunks; c++ {
			s.segs = append(s.segs, optim.Segment{
				Param: i,
				Row0:  c * p.W.Rows / chunks,
				Row1:  (c + 1) * p.W.Rows / chunks,
			})
		}
	}

	// Weight units by the state bytes ReplicaStateBytes charges them (the
	// quantity ZeRO balances; ×64 puts an fp32 state element at 256), with
	// the unit's element count as a minor tiebreaker so zero-state methods
	// still spread their weight-broadcast payload.
	weights := make([]int64, len(s.segs))
	for u, seg := range s.segs {
		p := all[seg.Param]
		weights[u] = share(s.StateBytesFor(p), seg, p.W.Rows)*64 + share(int64(p.NumEl()), seg, p.W.Rows)
	}
	s.parts = PartitionWeighted(weights, s.n)
}

// Shards implements optim.ShardedStepper.
func (s *Sharded) Shards() int { return s.n }

// OwnedSegments implements optim.ShardedStepper. The map exists from the end
// of the first Step.
func (s *Sharded) OwnedSegments(shard int) []optim.Segment {
	if s.parts == nil {
		panic("zero: OwnedSegments before the first Step")
	}
	out := make([]optim.Segment, len(s.parts[shard]))
	for i, u := range s.parts[shard] {
		out[i] = s.segs[u]
	}
	return out
}

// StepShard steps the parameters whose row 0 the shard owns, so the N calls
// together are one Step: one replica's share of the step's work, which is
// what a probe times.
func (s *Sharded) StepShard(shard int) {
	if s.parts == nil {
		panic("zero: StepShard before the first Step")
	}
	var ps []*nn.Param
	for _, u := range s.parts[shard] {
		if seg := s.segs[u]; seg.Row0 == 0 {
			ps = append(ps, s.all[seg.Param])
		}
	}
	s.shardable.Step(ps)
}

// Step implements optim.Optimizer: the inner optimizer steps ps itself, and
// the first Step then fixes the ownership map over ps.
func (s *Sharded) Step(ps []*nn.Param) {
	if s.parts != nil && (len(ps) != len(s.all) || (len(ps) > 0 && ps[0] != s.all[0])) {
		panic("zero: Sharded stepped with a different parameter list")
	}
	s.shardable.Step(ps)
	if s.parts == nil {
		s.partition(ps)
	}
}

// Name implements optim.Optimizer.
func (s *Sharded) Name() string {
	return fmt.Sprintf("%s+ZeRO%d", s.shardable.Name(), s.n)
}

// CheckpointName implements optim.CheckpointNamer: checkpoints are keyed by
// the inner optimizer's identity, not the world size, so they reshard.
func (s *Sharded) CheckpointName() string {
	if n, ok := s.shardable.(optim.CheckpointNamer); ok {
		return n.CheckpointName()
	}
	return s.shardable.Name()
}

// ReplicaStateBytes implements optim.ShardedStepper: each shard's resident
// footprint — its units' exact shares of the measured bytes — the number the
// paper-style memory tables care about per GPU. All zero before the first
// Step, when there is no state to charge.
func (s *Sharded) ReplicaStateBytes() []int64 {
	out := make([]int64, s.n)
	for shard, units := range s.parts {
		for _, u := range units {
			seg := s.segs[u]
			p := s.all[seg.Param]
			out[shard] += share(s.StateBytesFor(p), seg, p.W.Rows)
		}
	}
	return out
}
