// Data-parallel pre-training: the measured counterpart of the DDP mechanism
// internal/cluster simulates. A global batch is sharded across N model
// replicas, each replica runs forward/backward concurrently on its shard,
// and gradients are all-reduced before a single optimizer step on the
// master parameters. Its wall time is the repository benchmark's to report:
// `bash benchmark/run.sh --workload pretrain_dpzero` is the number of record
// for this stage (with `--trace 1`, the all-reduce/broadcast phases and the
// kernels' `runtime.parallel_speedup` beside it); `apollo-bench -run
// fig1-throughput` prints the simulator's prediction.
//
// This file is the data-parallel gradient stage of the pre-training loop
// (pretrain in train.go): where the batch gradient comes from and how
// stepped weights get back to the replicas. The rest of a step is the loop's.
//
// Determinism contract. The gradient of a global batch is *defined* as the
// balanced binary-tree sum of per-sequence gradient leaves, and the loss as
// the same tree over per-sequence loss sums; cross-entropy normalizes every
// shard by the global target count (nn.CrossEntropyShard). Leaves and tree
// depend only on the batch — never on the replica count or scheduling — so
// DPPretrain is bit-identical for any Replicas value: `-replicas 4`
// reproduces `-replicas 1` exactly, float by float. (The fused stage
// computes the same mathematical gradient in one big forward/backward; its
// float32 rounding differs, so DP runs are compared against DP runs and
// the fused stage stays the default for single-process training.)
package train

import (
	"sync"

	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/obs"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// DPConfig controls a data-parallel pre-training run.
type DPConfig struct {
	PretrainConfig
	// Replicas is the number of model replicas sharding each batch
	// (clamped to [1, Batch]). Results are bit-identical for every value.
	Replicas int
}

// dpReplica is one model copy with its parameter list cached.
type dpReplica struct {
	model  *nn.Model
	params []*nn.Param
}

// dataParallel is the gradient stage of a `-replicas N` run.
type dataParallel struct {
	master  []*nn.Param
	reps    []*dpReplica
	sharder optim.ShardedStepper // non-nil under ZeRO: publish keeps the replicas current

	leaves   [][]*tensor.Matrix // one gradient leaf per sequence of the global batch, per param
	lossSums []float64          // per-sequence unnormalized loss
	clocks   []phaseClock       // per-replica forward/backward time, merged after the join

	paramBytes                     int64
	allReduceBytes, broadcastBytes int64 // comm volume the Result reports
}

// DPPretrain runs the pre-training loop of Pretrain with data-parallel
// gradient computation. model holds the master weights; opt steps them.
//
// ZeRO extension. When opt implements optim.ShardedStepper (zero.Sharded),
// the optimizer's state is partitioned: every parameter row range has one
// owner shard, which is charged its state and publishes its stepped rows,
// and the updated weights reach the other replicas through a per-shard
// binomial-tree broadcast — the weight-side mirror of the gradient
// all-reduce tree. The step itself is still the one Optimizer.Step, and
// broadcast copies are float-exact, so the sharded run stays bit-identical
// to `-replicas 1` while each replica's resident optimizer state drops to
// ~1/N (see Result.ReplicaStateBytes and internal/zero's determinism
// contract).
func DPPretrain(model *nn.Model, opt optim.Optimizer, corpus *data.Corpus, cfg DPConfig) Result {
	pcfg := cfg.PretrainConfig.withDefaults()
	return pretrain(model, opt, corpus, pcfg, newDataParallel(model, opt, pcfg.Batch, cfg.Replicas))
}

func newDataParallel(model *nn.Model, opt optim.Optimizer, batch, replicas int) *dataParallel {
	replicas = max(1, min(replicas, batch))
	dp := &dataParallel{
		master:   model.Params().List(),
		reps:     make([]*dpReplica, replicas),
		leaves:   make([][]*tensor.Matrix, batch),
		lossSums: make([]float64, batch),
		clocks:   make([]phaseClock, replicas),
	}
	dp.paramBytes, _ = paramListBytes(dp.master)
	for r := range dp.reps {
		rm := nn.NewModel(model.Cfg, tensor.NewRNG(uint64(r)+1))
		dp.reps[r] = &dpReplica{model: rm, params: rm.Params().List()}
	}
	for s := range dp.leaves {
		dp.leaves[s] = make([]*tensor.Matrix, len(dp.master))
		for i, p := range dp.master {
			dp.leaves[s][i] = tensor.NewMatrix(p.W.Rows, p.W.Cols)
		}
	}
	if sharder, ok := opt.(optim.ShardedStepper); ok {
		sharder.Init(dp.master)
		dp.sharder = sharder
		dp.syncReplicas() // once; thereafter publish keeps them current
	}
	return dp
}

// syncReplicas copies the master weights into every replica.
func (dp *dataParallel) syncReplicas() {
	for _, rep := range dp.reps {
		for i, p := range dp.master {
			rep.params[i].W.CopyFrom(p.W)
		}
	}
}

// gradient fills the master grads and returns the batch loss: replica sync,
// concurrent per-sequence leaves, balanced-tree all-reduce.
func (dp *dataParallel) gradient(batch data.Batch, pc *phaseClock) float64 {
	b, t := len(dp.leaves), batch.T
	replicas := len(dp.reps)
	counted := nn.CountTargets(batch.Targets, -1)

	// Broadcast master weights to every replica (the DDP sync point).
	// Under ZeRO this already happened through the post-step shard
	// broadcast, so the copy (and its comm volume) is skipped.
	if dp.sharder == nil {
		dp.syncReplicas()
		dp.broadcastBytes += int64(replicas) * dp.paramBytes
	}
	pc.lap(obs.PhaseBroadcast)

	// A batch with no non-ignored targets has zero loss and zero
	// gradient (the fused CrossEntropy convention); skip the shard
	// compute rather than hand CrossEntropyShard a zero normalizer.
	if counted == 0 {
		for s := range dp.leaves {
			for _, buf := range dp.leaves[s] {
				buf.Zero()
			}
			dp.lossSums[s] = 0
		}
	}

	// Concurrent sharded forward/backward: replica r owns the contiguous
	// sequence range [r·B/N, (r+1)·B/N) and times its own forward/backward
	// halves; those sums carry the section's wall time, so pc skips it.
	var wg sync.WaitGroup
	for r := 0; r < replicas; r++ {
		dp.clocks[r] = phaseClock{on: pc.on}
		if counted == 0 {
			continue
		}
		wg.Add(1)
		go func(rep *dpReplica, rc *phaseClock, lo, hi int) {
			defer wg.Done()
			for s := lo; s < hi; s++ {
				rep.model.Params().ZeroGrad()
				rc.skip()
				dp.lossSums[s] = lossShardPhased(rep.model,
					batch.Tokens[s*t:(s+1)*t], batch.Targets[s*t:(s+1)*t], 1, t, counted, rc, nil)
				for i, p := range rep.params {
					dp.leaves[s][i].CopyFrom(p.Grad)
				}
			}
		}(dp.reps[r], &dp.clocks[r], r*b/replicas, (r+1)*b/replicas)
	}
	wg.Wait()
	for r := range dp.clocks {
		pc.merge(&dp.clocks[r])
	}
	pc.skip()

	// All-reduce: balanced binary tree over leaf indices. The pairing
	// depends only on B, so the float32 sums are replica-count
	// independent. The result lands in leaf 0.
	for stride := 1; stride < b; stride *= 2 {
		for i := 0; i+stride < b; i += 2 * stride {
			for j := range dp.leaves[i] {
				tensor.AddInPlace(dp.leaves[i][j], dp.leaves[i+stride][j])
			}
			dp.lossSums[i] += dp.lossSums[i+stride]
			dp.allReduceBytes += dp.paramBytes
		}
	}
	for i, p := range dp.master {
		p.Grad.CopyFrom(dp.leaves[0][i])
	}
	loss := 0.0
	if counted > 0 {
		loss = dp.lossSums[0] / float64(counted)
	}
	pc.lap(obs.PhaseAllReduce)
	return loss
}

// publish gets the freshly stepped master weights back to the replicas:
// under ZeRO the binomial-tree broadcast of each updated shard from its
// owner; nothing in plain DP, which re-syncs at the top of the next gradient.
func (dp *dataParallel) publish(pc *phaseClock) {
	if dp.sharder == nil {
		return
	}
	dp.broadcastBytes += broadcastShards(dp.reps, dp.master, dp.sharder)
	pc.lap(obs.PhaseBroadcast)
}

// replicaStateBytes: one shard each under ZeRO, the full state in plain DP.
func (dp *dataParallel) replicaStateBytes(opt optim.Optimizer) []int64 {
	if dp.sharder != nil {
		return dp.sharder.ReplicaStateBytes()
	}
	per := make([]int64, len(dp.reps))
	for i := range per {
		per[i] = opt.StateBytes()
	}
	return per
}

// broadcastShards distributes each shard's freshly stepped master weights
// to every replica with a binomial tree rooted at the shard's owner: the
// owner copies its shard locally (its own update — no traffic), then in
// round k every replica holding the shard forwards it stride=2^k ranks
// ahead, exactly the log₂(N)-depth pattern of the gradient all-reduce.
// Shards cover disjoint parameter indices, so their trees run concurrently.
// Copies are float-exact; the returned byte count covers only the
// inter-replica transfers.
func broadcastShards(reps []*dpReplica, master []*nn.Param, sharder optim.ShardedStepper) int64 {
	replicas := len(reps)
	var moved int64
	var wg sync.WaitGroup
	for s := 0; s < sharder.Shards(); s++ {
		segs := sharder.OwnedSegments(s)
		if len(segs) == 0 {
			continue
		}
		var shardBytes int64
		for _, sg := range segs {
			shardBytes += 4 * int64((sg.Row1-sg.Row0)*master[sg.Param].W.Cols)
		}
		owner := s % replicas
		moved += shardBytes * int64(replicas-1)
		wg.Add(1)
		go func(segs []optim.Segment, owner int) {
			defer wg.Done()
			copySegs := func(dst, src *dpReplica) {
				for _, sg := range segs {
					lo := sg.Row0 * master[sg.Param].W.Cols
					hi := sg.Row1 * master[sg.Param].W.Cols
					copy(dst.params[sg.Param].W.Data[lo:hi], src.params[sg.Param].W.Data[lo:hi])
				}
			}
			// The owner's copy from master is its own freshly stepped
			// update — local, no traffic.
			copySegs(reps[owner], &dpReplica{params: master})
			for stride := 1; stride < replicas; stride *= 2 {
				for rel := 0; rel < stride && rel+stride < replicas; rel++ {
					copySegs(reps[(owner+rel+stride)%replicas], reps[(owner+rel)%replicas])
				}
			}
		}(segs, owner)
	}
	wg.Wait()
	return moved
}
