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

// paramListBytes sums the float32 storage of a parameter list's weights and
// (when allocated) gradients.
func paramListBytes(params []*nn.Param) (weights, grads int64) {
	for _, p := range params {
		weights += 4 * int64(p.W.NumEl())
		if p.Grad != nil {
			grads += 4 * int64(p.Grad.NumEl())
		}
	}
	return weights, grads
}

// instrumentMemory registers the loop's components on the profiler: weights
// and grads (fixed once the model exists) plus live optimizer state, the
// measured StateBytes, as "optimizer_state". Under ZeRO the state is
// registered as one component per shard *instead* — the shards partition the
// measured state exactly (ReplicaStateBytes sums to StateBytes), so the
// total stays double-count free while showing the ~1/N split the sharding
// buys. A data-parallel stage then adds its own residents: the per-sequence
// gradient leaves and the replica models (weights + grads each).
func instrumentMemory(mp *memprof.Profiler, params []*nn.Param, opt optim.Optimizer, dp *dataParallel) {
	if mp == nil {
		return
	}
	weights, grads := paramListBytes(params)
	mp.Set(memprof.CompWeights, weights)
	mp.Set(memprof.CompGrads, grads)
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
	mp.Set(memprof.CompDPGradLeaves, int64(len(dp.leaves))*weights)
	var repBytes int64
	for _, rep := range dp.reps {
		w, g := paramListBytes(rep.params)
		repBytes += w + g
	}
	mp.Set(memprof.CompDPReplicas, repBytes)
}
