package bench

import (
	"reflect"
	"testing"

	"apollo/internal/ckpt"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// TestStepIsOrderFree checks that every row of the catalogue is order-free:
// stepping a model's parameters in the groups nn.Model.BackwardRelease hands
// out — [norm_f, head], the blocks last to first, [embed] — from the very
// first step, or as the whole list reversed, leaves the weights and every
// parameter's captured state bit-identical to whole-list steps across 52
// steps, first touches, the step-51 subspace refresh and ReLoRA's restart
// included. A member's random draws are keyed by its seed and the
// parameter's name, never by how many draws came before. The one wrapper the
// training loop does not hand groups to is zero.Sharded, whose ownership map
// is fixed from the whole list (train.TestReleaseGroupsReachStep).
func TestStepIsOrderFree(t *testing.T) {
	const steps, rank = 52, 4
	cfg := nn.Config{Vocab: 64, Dim: 16, Hidden: 40, Heads: 2, Layers: 2, MaxSeq: 8}
	newModel := func() *nn.Model { return nn.NewModel(cfg, tensor.NewRNG(5)) }

	// The orders, as lists of index groups into the parameter list.
	model := newModel()
	index := map[*nn.Param]int{}
	var whole, reversed []int
	for i, p := range model.Params().List() {
		index[p] = i
		whole = append(whole, i)
		reversed = append([]int{i}, reversed...)
	}
	tokens := []int{1, 2, 3, 4, 5, 6, 7, 8}
	_, dlogits := nn.CrossEntropy(model.Forward(tokens, 1, len(tokens)), tokens, -1)
	var release [][]int
	model.BackwardRelease(dlogits, func(g []*nn.Param) {
		var idx []int
		for _, p := range g {
			idx = append(idx, index[p])
		}
		release = append(release, idx)
	})

	run := func(m Method, order [][]int) (*ckpt.State, []*nn.Param) {
		ps := newModel().Params().List()
		opt := m.New(optim.Hyper{LR: 0.01, WeightDecay: 0.1}, m.Rank(rank, cfg.Dim), 11)
		for s := 0; s < steps; s++ {
			rng := tensor.NewRNG(uint64(s)*7919 + 13)
			for _, p := range ps {
				for i := range p.Grad.Data {
					p.Grad.Data[i] = rng.NormFloat32() * 0.05
				}
			}
			for _, idx := range order {
				group := make([]*nn.Param, len(idx))
				for k, i := range idx {
					group[k] = ps[i]
				}
				opt.Step(group)
			}
		}
		st, err := ckpt.Capture(steps, ps, opt, nil)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		return st, ps
	}
	for _, m := range Methods() {
		t.Run(m.Name+"/order-free=true", func(t *testing.T) {
			want, wantPs := run(m, [][]int{whole})
			for _, c := range []struct {
				name  string
				order [][]int
			}{{"release", release}, {"reversed", [][]int{reversed}}} {
				t.Run(c.name, func(t *testing.T) {
					got, ps := run(m, c.order)
					var diffs []string
					for i, p := range ps {
						if !p.W.Equal(wantPs[i].W) {
							diffs = append(diffs, "weights of "+p.Name)
						}
						if !reflect.DeepEqual(got.OptStates[i], want.OptStates[i]) {
							diffs = append(diffs, "captured state of "+p.Name)
						}
					}
					if len(diffs) > 0 {
						t.Errorf("differs from whole-list steps in %d places, first %v", len(diffs), diffs[:min(3, len(diffs))])
					}
				})
			}
		})
	}
}
