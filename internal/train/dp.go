// Data-parallel pre-training: the measured counterpart of the DDP mechanism
// internal/cluster simulates. A global batch is sharded across N model
// replicas, each replica runs forward/backward concurrently on its shard,
// and gradients are all-reduced before a single optimizer step on the
// master parameters — so the cluster simulator's predicted speedup and the
// speedup measured here can be compared directly (see `apollo-bench -run
// runtime`; `bash benchmark/run.sh --workload pretrain_fused --trace 1`
// reports the kernels' `runtime.*_gflops` and `runtime.parallel_speedup`).
//
// Determinism contract. The gradient of a global batch is *defined* as the
// balanced binary-tree sum of per-sequence gradient leaves, and the loss as
// the same tree over per-sequence loss sums; cross-entropy normalizes every
// shard by the global target count (nn.CrossEntropyShard). Leaves and tree
// depend only on the batch — never on the replica count or scheduling — so
// DPPretrain is bit-identical for any Replicas value: `-replicas 4`
// reproduces `-replicas 1` exactly, float by float. (The classic fused
// Pretrain loop computes the same mathematical gradient in one big
// forward/backward; its float32 rounding differs, so DP runs are compared
// against DP runs and the fused loop stays the default for single-process
// training.)
package train

import (
	"math"
	"sync"
	"time"

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

// DPPretrain runs the causal-LM loop of Pretrain with data-parallel
// gradient computation. model holds the master weights; opt steps them.
//
// ZeRO extension. When opt implements optim.ShardedStepper (zero.Sharded),
// the optimizer step itself is partitioned: each shard's inner optimizer
// runs concurrently on the shard's owner, and the updated weights reach
// the other replicas through a per-shard binomial-tree broadcast — the
// weight-side mirror of the gradient all-reduce tree. Broadcast copies are
// float-exact, so the sharded run stays bit-identical to `-replicas 1`
// while each replica's resident optimizer state drops to ~1/N (see
// Result.ReplicaStateBytes and internal/zero's determinism contract).
func DPPretrain(model *nn.Model, opt optim.Optimizer, corpus *data.Corpus, cfg DPConfig) Result {
	pcfg := cfg.PretrainConfig.withDefaults()
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}
	if replicas > pcfg.Batch {
		replicas = pcfg.Batch
	}

	start := time.Now()
	master := model.Params().List()
	var paramBytes int64
	for _, p := range master {
		paramBytes += 4 * int64(p.NumEl())
	}

	reps := make([]*dpReplica, replicas)
	for r := range reps {
		rm := nn.NewModel(model.Cfg, tensor.NewRNG(uint64(r)+1))
		reps[r] = &dpReplica{model: rm, params: rm.Params().List()}
	}

	sharder, sharded := opt.(optim.ShardedStepper)
	if sharded {
		sharder.Init(master)
		// One-time full sync: thereafter replicas stay current through the
		// per-step weight broadcast instead of a master → replica copy.
		for _, rep := range reps {
			for i, p := range master {
				rep.params[i].W.CopyFrom(p.W)
			}
		}
	}
	var allReduceBytes, broadcastBytes int64

	// One gradient leaf per sequence of the global batch, plus its loss sum.
	b, t := pcfg.Batch, pcfg.Seq
	leaves := make([][]*tensor.Matrix, b)
	for s := range leaves {
		bufs := make([]*tensor.Matrix, len(master))
		for i, p := range master {
			bufs[i] = tensor.NewMatrix(p.W.Rows, p.W.Cols)
		}
		leaves[s] = bufs
	}
	lossSums := make([]float64, b)

	rec := pcfg.Telemetry
	wd := pcfg.Watchdog
	if pcfg.MemProf != nil {
		var sh optim.ShardedStepper
		if sharded {
			sh = sharder
		}
		leafBytes := int64(b) * paramBytes
		instrumentDPMemory(pcfg.MemProf, master, opt, reps, leafBytes, sh)
	}
	timed := rec != nil || wd != nil
	endStep := pcfg.Steps
	// Per-replica forward/backward wall time for the concurrent compute
	// section; merged into the phase clock after the join, so no atomics.
	repFwd := make([]time.Duration, replicas)
	repBwd := make([]time.Duration, replicas)

	var series []Metric
	for step := pcfg.StartStep; step < pcfg.Steps; step++ {
		var stepStart time.Time
		if timed {
			stepStart = time.Now()
		}
		pc := phaseClock{on: rec != nil, mark: stepStart}
		if pcfg.Schedule != nil {
			opt.SetLR(pcfg.Schedule.At(step))
		}
		batch := corpus.NextTrainBatch(b, t)
		counted := nn.CountTargets(batch.Targets, -1)
		pc.lap(obs.PhaseData)

		// Broadcast master weights to every replica (the DDP sync point).
		// Under ZeRO this already happened through the post-step shard
		// broadcast, so the copy (and its comm volume) is skipped.
		if !sharded {
			for _, rep := range reps {
				for i, p := range master {
					rep.params[i].W.CopyFrom(p.W)
				}
			}
			broadcastBytes += int64(replicas) * paramBytes
		}
		pc.lap(obs.PhaseBroadcast)

		// A batch with no non-ignored targets has zero loss and zero
		// gradient (the fused CrossEntropy convention); skip the shard
		// compute rather than hand CrossEntropyShard a zero normalizer.
		if counted == 0 {
			for s := range leaves {
				for _, buf := range leaves[s] {
					buf.Zero()
				}
				lossSums[s] = 0
			}
		}

		// Concurrent sharded forward/backward: replica r owns the
		// contiguous sequence range [r·B/N, (r+1)·B/N). With telemetry on,
		// each replica times its own forward/backward halves — the split
		// calls are LossShard spelled out, so the bits are unchanged — and
		// the main goroutine merges them after the join.
		var wg sync.WaitGroup
		for r := 0; r < replicas && counted > 0; r++ {
			lo, hi := r*b/replicas, (r+1)*b/replicas
			wg.Add(1)
			go func(rep *dpReplica, lo, hi, r int) {
				defer wg.Done()
				var fwd, bwd time.Duration
				for s := lo; s < hi; s++ {
					rep.model.Params().ZeroGrad()
					toks := batch.Tokens[s*t : (s+1)*t]
					tgts := batch.Targets[s*t : (s+1)*t]
					if pc.on {
						t0 := time.Now()
						logits := rep.model.Forward(toks, 1, t)
						t1 := time.Now()
						fwd += t1.Sub(t0)
						sum, dlogits := nn.CrossEntropyShard(logits, tgts, -1, counted)
						rep.model.Backward(dlogits)
						bwd += time.Since(t1)
						lossSums[s] = sum
					} else {
						lossSums[s] = rep.model.LossShard(toks, tgts, 1, t, counted)
					}
					for i, p := range rep.params {
						leaves[s][i].CopyFrom(p.Grad)
					}
				}
				repFwd[r], repBwd[r] = fwd, bwd
			}(reps[r], lo, hi, r)
		}
		wg.Wait()
		if pc.on {
			for r := 0; r < replicas; r++ {
				pc.d[obs.PhaseForward] += repFwd[r]
				pc.d[obs.PhaseBackward] += repBwd[r]
			}
			pc.skip() // section wall time is carried by the replica sums
		}

		// All-reduce: balanced binary tree over leaf indices. The pairing
		// depends only on B, so the float32 sums are replica-count
		// independent. The result lands in leaf 0.
		for stride := 1; stride < b; stride *= 2 {
			for i := 0; i+stride < b; i += 2 * stride {
				for j := range leaves[i] {
					tensor.AddInPlace(leaves[i][j], leaves[i+stride][j])
				}
				lossSums[i] += lossSums[i+stride]
				allReduceBytes += paramBytes
			}
		}
		for i, p := range master {
			p.Grad.CopyFrom(leaves[0][i])
		}
		loss := 0.0
		if counted > 0 {
			loss = lossSums[0] / float64(counted)
		}
		pc.lap(obs.PhaseAllReduce)
		var gradNorm float64
		if timed {
			gradNorm = model.Params().GradNorm()
		}

		if pcfg.ClipNorm > 0 {
			model.Params().ClipGradNorm(pcfg.ClipNorm)
		}
		if sharded {
			// ZeRO phase 1: each owner replica steps only its shard of the
			// master parameters — disjoint sets, so shards run concurrently.
			var sg sync.WaitGroup
			for s := 0; s < sharder.Shards(); s++ {
				sg.Add(1)
				go func(s int) {
					defer sg.Done()
					sharder.StepShard(s)
				}(s)
			}
			sg.Wait()
			pc.lap(obs.PhaseStep)
			// ZeRO phase 2: binomial-tree broadcast of each updated shard
			// from its owner to the other replicas.
			broadcastBytes += broadcastShards(reps, master, sharder, replicas)
			pc.lap(obs.PhaseBroadcast)
		} else {
			opt.Step(master)
			pc.lap(obs.PhaseStep)
		}
		// Checkpoint after the optimizer step (and, under ZeRO, after the
		// broadcast): master weights are current and a Sharded optimizer
		// gathers its shard-owned state into the canonical layout, so the
		// snapshot resumes under any world size.
		maybeCheckpoint(pcfg, step, master, opt, corpus)
		pc.lap(obs.PhaseCheckpoint)

		if pcfg.EvalEvery > 0 && (step+1)%pcfg.EvalEvery == 0 {
			val := Validate(model, corpus, pcfg.EvalBatches, b, t)
			series = append(series, Metric{
				Step: step + 1, TrainLoss: loss, ValLoss: val,
				ValPPL: math.Exp(val), LR: opt.LR(),
			})
			pcfg.Logf("[%s x%d] step %d/%d train %.4f val ppl %.2f",
				opt.Name(), replicas, step+1, pcfg.Steps, loss, math.Exp(val))
		}
		pc.lap(obs.PhaseEval)
		var wall time.Duration
		if timed {
			wall = time.Since(stepStart)
		}
		if rec != nil {
			rec.RecordStep(step+1, loss, gradNorm, opt.LR(), wall, pc.d)
		}
		pcfg.MemProf.ObserveStep(step + 1)
		if wd.ObserveStep(step+1, loss, gradNorm, wall.Seconds()) {
			endStep = step + 1
			pcfg.Logf("[%s x%d] step %d: watchdog halt", opt.Name(), replicas, endStep)
			break
		}
	}
	final := Validate(model, corpus, pcfg.EvalBatches, b, t)
	series = append(series, Metric{
		Step: endStep, ValLoss: final, ValPPL: math.Exp(final), LR: opt.LR(),
	})
	var perReplica []int64
	if sharded {
		perReplica = sharder.ReplicaStateBytes()
	} else {
		perReplica = make([]int64, replicas)
		for i := range perReplica {
			perReplica[i] = opt.StateBytes() // plain DP replicates full state
		}
	}
	res := Result{
		Optimizer:         opt.Name(),
		Series:            series,
		FinalValPPL:       math.Exp(final),
		StateBytes:        opt.StateBytes(),
		WallSeconds:       time.Since(start).Seconds(),
		Steps:             endStep,
		ReplicaStateBytes: perReplica,
		AllReduceBytes:    allReduceBytes,
		BroadcastBytes:    broadcastBytes,
	}
	summarizeTelemetry(&res, rec)
	summarizeWatchdog(&res, wd, endStep)
	return res
}

// broadcastShards distributes each shard's freshly stepped master weights
// to every replica with a binomial tree rooted at the shard's owner: the
// owner copies its shard locally (its own update — no traffic), then in
// round k every replica holding the shard forwards it stride=2^k ranks
// ahead, exactly the log₂(N)-depth pattern of the gradient all-reduce.
// Shards cover disjoint parameter indices, so their trees run concurrently.
// Copies are float-exact; the returned byte count covers only the
// inter-replica transfers.
func broadcastShards(reps []*dpReplica, master []*nn.Param, sharder optim.ShardedStepper, replicas int) int64 {
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
			for _, sg := range segs {
				lo := sg.Row0 * master[sg.Param].W.Cols
				hi := sg.Row1 * master[sg.Param].W.Cols
				copy(reps[owner].params[sg.Param].W.Data[lo:hi], master[sg.Param].W.Data[lo:hi])
			}
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
