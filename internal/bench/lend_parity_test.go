package bench

import (
	"math"
	"reflect"
	"testing"

	"apollo/internal/ckpt"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
	"apollo/internal/train"
)

// TestCatalogueLendingParity is the lending contract over the whole method
// catalogue: four fused steps with ClipNorm 0, where each group's gradient
// is lent from the model's two-slab ring and stepped while backward goes on,
// leave the weights and every parameter's captured state bit-equal to the
// same four steps under ClipNorm +Inf, which never clips but keeps every
// gradient resident and steps the whole list after backward. A member that
// read a gradient after its group's step returned, or kept one across steps,
// would see a slab another group has since written.
func TestCatalogueLendingParity(t *testing.T) {
	cfg := nn.Config{Vocab: proxyVocab, Dim: 16, Hidden: 40, Heads: 2, Layers: 2, MaxSeq: 8}
	run := func(m Method, clip float64) (*ckpt.State, []*nn.Param) {
		model := nn.NewModel(cfg, tensor.NewRNG(5))
		opt := m.New(optim.Hyper{LR: 0.01, WeightDecay: 0.1}, m.Rank(4, cfg.Dim), 11)
		corpus, err := NewCorpus(13)
		if err != nil {
			t.Fatal(err)
		}
		res := train.Pretrain(model, opt, corpus, train.PretrainConfig{
			Batch: 2, Seq: 8, Steps: 4, EvalBatches: 1, ClipNorm: clip,
		})
		st, err := ckpt.Capture(res.Steps, model.Params().List(), opt, nil)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		return st, model.Params().List()
	}
	for _, m := range Methods() {
		t.Run(m.Name, func(t *testing.T) {
			want, wantPs := run(m, math.Inf(1))
			got, ps := run(m, 0)
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
				t.Errorf("lent differs from resident in %d places, first %v", len(diffs), diffs[:min(3, len(diffs))])
			}
		})
	}
}
