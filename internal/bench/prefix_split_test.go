package bench

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"apollo/internal/ckpt"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// TestStepIsPrefixSplittable is the order contract of the one list walk
// (optim.Base.Walk) for every row of the catalogue: stepping a list as two
// consecutive pieces — Step(ps[:k]); Step(ps[k:]) — leaves the weights and
// everything a checkpoint captures (global cursors, every parameter's state)
// bit-identical to Step(ps), wherever the cut falls: after the embedding,
// between two projected matrices, before the last vector. It is what
// zero.Sharded leans on when it hands its inner optimizer one shard's units
// at a time, and what a layer-wise loop that steps block by block would.
// First touches (seed draws, factor initializations) happen on step 1, the
// periodic subspace refresh and ReLoRA's restart redraw on step 51.
func TestStepIsPrefixSplittable(t *testing.T) {
	const steps, rank = 52, 4
	run := func(m Method, k int) (*ckpt.State, []*nn.Param) {
		ps := shardParityParams()
		opt := m.New(optim.Hyper{LR: 0.01, WeightDecay: 0.1}, m.Rank(rank, 16), 11)
		for s := 0; s < steps; s++ {
			rng := tensor.NewRNG(uint64(s)*7919 + 13)
			for _, p := range ps {
				for i := range p.Grad.Data {
					p.Grad.Data[i] = rng.NormFloat32() * 0.05
				}
			}
			if k == 0 {
				opt.Step(ps)
				continue
			}
			opt.Step(ps[:k])
			opt.Step(ps[k:])
		}
		st, err := ckpt.Capture(steps, ps, opt, nil)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		return st, ps
	}
	for _, m := range Methods() {
		want, wantPs := run(m, 0)
		for k := 1; k < len(wantPs); k++ {
			t.Run(fmt.Sprintf("%s/k=%d", m.Name, k), func(t *testing.T) {
				got, ps := run(m, k)
				if !slices.Equal(got.OptGlobals, want.OptGlobals) {
					t.Errorf("global cursors %v, whole-list step %v", got.OptGlobals, want.OptGlobals)
				}
				for i, p := range ps {
					if !p.W.Equal(wantPs[i].W) {
						t.Errorf("weights of %s differ from the whole-list step", p.Name)
					}
					if !reflect.DeepEqual(got.OptStates[i], want.OptStates[i]) {
						t.Errorf("captured state of %s differs from the whole-list step", p.Name)
					}
				}
			})
		}
	}
}
