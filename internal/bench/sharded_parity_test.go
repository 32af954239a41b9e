package bench

import (
	"fmt"
	"reflect"
	"testing"

	"apollo/internal/ckpt"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
	"apollo/internal/zero"
)

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

// TestCatalogueShardedParity is the ZeRO contract over the whole method
// catalogue: stepping through zero.Sharded at 2, 3 and 4 shards leaves (a)
// the weights, (b) everything a checkpoint captures — every parameter's
// state — bit-equal to the unsharded optimizer's, and (c) per-replica bytes
// that sum to its StateBytes. The catalogue's refresh gap and ReLoRA's merge
// period are both 50, so the horizon crosses step 50: the subspace refresh
// and the restart redraw both happen under the partition.
func TestCatalogueShardedParity(t *testing.T) {
	const steps, rank = 52, 4
	step := func(opt optim.Optimizer, ps []*nn.Param) {
		for s := 0; s < steps; s++ {
			rng := tensor.NewRNG(uint64(s)*7919 + 13)
			for _, p := range ps {
				for i := range p.Grad.Data {
					p.Grad.Data[i] = rng.NormFloat32() * 0.05
				}
			}
			opt.Step(ps)
		}
	}
	for _, m := range Methods() {
		build := func() optim.Optimizer { return m.New(optim.Hyper{LR: 0.01, WeightDecay: 0.1}, m.Rank(rank, 16), 11) }
		refParams := shardParityParams()
		ref := build()
		step(ref, refParams)
		want, err := ckpt.Capture(steps, refParams, ref, nil)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for _, n := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", m.Name, n), func(t *testing.T) {
				params := shardParityParams()
				sh := zero.NewSharded(build(), n)
				step(sh, params)
				for i, p := range params {
					if !p.W.Equal(refParams[i].W) {
						t.Errorf("weights of %s differ from the unsharded run", p.Name)
					}
				}
				got, err := ckpt.Capture(steps, params, sh, nil)
				if err != nil {
					t.Fatalf("capture: %v", err)
				}
				if got.Optimizer != want.Optimizer {
					t.Errorf("captured as %q, unsharded %q", got.Optimizer, want.Optimizer)
				}
				for i, p := range params {
					if !reflect.DeepEqual(got.OptStates[i], want.OptStates[i]) {
						t.Errorf("captured state of %s differs from the unsharded run", p.Name)
					}
				}
				var sum int64
				for _, b := range sh.ReplicaStateBytes() {
					sum += b
				}
				if sum != ref.StateBytes() || sh.StateBytes() != ref.StateBytes() {
					t.Errorf("replicas hold %d bytes, the wrapper reports %d, unsharded %d", sum, sh.StateBytes(), ref.StateBytes())
				}
			})
		}
	}
}
