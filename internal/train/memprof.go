// Live memory accounting for the pre-training loop: wiring its resident
// tensors and the optimizer's measured state into a memprof.Profiler's
// component ledger. Everything here is observational — the closures read byte
// counts the loop already owns and feed nothing back, so a profiled run is
// bit-identical to an unprofiled one (TestObserverParity).
package train

import (
	"apollo/internal/nn"
	"apollo/internal/obs/memprof"
	"apollo/internal/optim"
)

// paramBytes is the float32 storage of one set of a parameter list's
// shapes: its weights, or one gradient set.
func paramBytes(params []*nn.Param) int64 {
	var n int64
	for _, p := range params {
		n += 4 * int64(p.W.NumEl())
	}
	return n
}

// instrumentMemory registers the loop's components on the profiler: weights
// (fixed once the model exists), the model's gradient storage as it stands
// when sampled — resident, or the lending ring's two slabs — plus live
// optimizer state, the measured StateBytes, as "optimizer_state". Under ZeRO
// the state is registered as one component per shard *instead* — the shards
// partition the measured state exactly (ReplicaStateBytes sums to
// StateBytes), so the total stays double-count free while showing the ~1/N
// split the sharding buys. A data-parallel stage then adds its own residents:
// the partial-sum buffers its replicas' tree folds have allocated so far, and
// the replica models beside the master (weights + grads each; replica 0 is
// the master).
func instrumentMemory(mp *memprof.Profiler, model *nn.Model, opt optim.Optimizer, dp *dataParallel) {
	if mp == nil {
		return
	}
	mp.Set(memprof.CompWeights, paramBytes(model.Params().List()))
	mp.Track(memprof.CompGrads, model.GradBytes)
	if dp != nil && dp.sharder != nil {
		for s := 0; s < dp.sharder.Shards(); s++ {
			mp.Track(memprof.ShardComponent(s), func() int64 {
				return dp.sharder.ReplicaStateBytes()[s]
			})
		}
	} else {
		mp.Track(memprof.CompOptimizerState, opt.StateBytes)
	}
	if dp == nil {
		return
	}
	mp.Track(memprof.CompDPGradLeaves, func() int64 {
		var held int64
		for _, rep := range dp.reps {
			held += rep.spareBytes.Load()
		}
		return held
	})
	var repBytes int64
	for _, rep := range dp.reps[1:] {
		repBytes += paramBytes(rep.params) + rep.model.GradBytes()
	}
	mp.Set(memprof.CompDPReplicas, repBytes)
}
