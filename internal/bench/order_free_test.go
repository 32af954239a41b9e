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
	"apollo/internal/zero"
)

// TestStepIsOrderFree checks optim.OrderFree against every row of the
// catalogue, in the order the training loop steps a model's parameters when
// backward releases them: one whole-list first step, then on every later
// step the groups nn.Model.BackwardRelease hands out — [norm_f, head], the
// blocks last to first, [embed]. For a row declared order-free that must
// leave the weights and everything a checkpoint captures (global cursors,
// every parameter's state) bit-identical to whole-list steps across 52
// steps, the step-51 subspace refresh and ReLoRA's restart included. For a
// row declared not order-free it must differ somewhere, so the declaration
// is needed and not just cautious. No wrapper the loop does not know — here
// zero.Sharded — is order-free.
func TestStepIsOrderFree(t *testing.T) {
	const steps, rank = 52, 4
	cfg := nn.Config{Vocab: 64, Dim: 16, Hidden: 40, Heads: 2, Layers: 2, MaxSeq: 8}
	newModel := func() *nn.Model { return nn.NewModel(cfg, tensor.NewRNG(5)) }

	// The release groups, as indices into the parameter list.
	model := newModel()
	index := map[*nn.Param]int{}
	for i, p := range model.Params().List() {
		index[p] = i
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

	run := func(m Method, grouped bool) (*ckpt.State, []*nn.Param) {
		ps := newModel().Params().List()
		opt := m.New(optim.Hyper{LR: 0.01, WeightDecay: 0.1}, m.Rank(rank, cfg.Dim), 11)
		for s := 0; s < steps; s++ {
			rng := tensor.NewRNG(uint64(s)*7919 + 13)
			for _, p := range ps {
				for i := range p.Grad.Data {
					p.Grad.Data[i] = rng.NormFloat32() * 0.05
				}
			}
			if !grouped || s == 0 {
				opt.Step(ps)
				continue
			}
			for _, idx := range release {
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
		opt := m.New(optim.Hyper{LR: 0.01}, m.Rank(rank, cfg.Dim), 11)
		free := optim.OrderFree(opt)
		t.Run(fmt.Sprintf("%s/order-free=%v", m.Name, free), func(t *testing.T) {
			if optim.OrderFree(zero.NewSharded(opt, 2)) {
				t.Error("zero.Sharded over it answers order-free")
			}
			want, wantPs := run(m, false)
			got, ps := run(m, true)
			var diffs []string
			if !slices.Equal(got.OptGlobals, want.OptGlobals) {
				diffs = append(diffs, fmt.Sprintf("global cursors %v, whole-list steps %v", got.OptGlobals, want.OptGlobals))
			}
			for i, p := range ps {
				if !p.W.Equal(wantPs[i].W) {
					diffs = append(diffs, "weights of "+p.Name)
				}
				if !reflect.DeepEqual(got.OptStates[i], want.OptStates[i]) {
					diffs = append(diffs, "captured state of "+p.Name)
				}
			}
			switch {
			case free && len(diffs) > 0:
				t.Errorf("declared order-free, but release order differs from whole-list steps in %d places, first %v", len(diffs), diffs[:min(3, len(diffs))])
			case !free && len(diffs) == 0:
				t.Error("declared not order-free, but release order matches whole-list steps bit for bit")
			}
		})
	}
}
