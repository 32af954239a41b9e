package bench

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"apollo/internal/core"
	"apollo/internal/linalg"
	"apollo/internal/optim"
	"apollo/internal/train"
)

// TestRecipeGolden pins the training recipe of the paper tables bit for
// bit: the final validation perplexity of a 30-step run on the 60M proxy at
// seed 1, for six methods trained by pretrainOne and for the three variants
// Fig. 5 and Table 9 train by hand. The expected bit patterns were recorded
// at commit 0d9d5c2, before the bodies were folded into one; a recipe that
// drifts (LR multiplier, clipping, seed convention, schedule) moves them.
func TestRecipeGolden(t *testing.T) {
	proxy, err := ProxyByName("60M")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &RunContext{Scale: Quick, Out: &bytes.Buffer{}, Seed: 1}
	const steps = 30
	one := func(method string) func() (float64, error) {
		return func() (float64, error) {
			res, err := pretrainOne(ctx, proxy, method, 0, steps, 0, 1)
			return res.FinalValPPL, err
		}
	}
	for _, c := range []struct {
		name string
		want uint64
		run  func() (float64, error)
	}{
		{"AdamW", 0x406dfdff3bc5c9fe, one("AdamW")},
		{"GaLore", 0x4069eeb176c97b39, one("GaLore")},
		{"Fira", 0x4069eeaa00681c59, one("Fira")},
		{"APOLLO", 0x4069ea8491eb2602, one("APOLLO")},
		{"APOLLO-Mini", 0x40702363b3b7f6e7, one("APOLLO-Mini")},
		{"Q-APOLLO", 0x4069f1465573f460, one("Q-APOLLO")},
		{"miniSVD", 0x4069dfb01ba019af, func() (float64, error) { return miniSVD(ctx, proxy, steps) }},
		{"miniAtRank(2)", 0x406ffe0ba8877916, func() (float64, error) { return miniAtRank(ctx, proxy, 2, steps) }},
		{"svd-tensor", 0x4069fb401803a922, func() (float64, error) {
			// runTable9's inline "svd-tensor" branch, verbatim.
			corpus, err := NewCorpus(ctx.Seed + 17)
			if err != nil {
				return 0, err
			}
			model := proxy.NewProxyModel(ctx.Seed + 33)
			lr := proxy.LR * methodLRScale("APOLLO-Tensor")
			opt := core.New(optim.Hyper{LR: lr}, core.Config{
				Rank: proxy.DefaultRank(), Granularity: core.Tensor, Scale: 1,
				Projection: linalg.SVDProjection, Seed: ctx.Seed, UpdateGap: 50,
			})
			res := train.Pretrain(model, opt, corpus, train.PretrainConfig{
				Batch: proxy.Batch, Seq: proxy.Seq, Steps: steps,
				Schedule: optim.NewWarmupCosine(lr, steps),
			})
			return res.FinalValPPL, nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ppl, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(ppl); got != c.want {
				t.Fatalf("final val ppl %.6f (0x%016x), recorded 0x%016x (%.6f)",
					ppl, got, c.want, math.Float64frombits(c.want))
			}
		})
	}
}

// The recipe lists as the paper tables have always applied them: the names
// trained at 4× the proxy LR (methodLRScale) and the names trained on the
// norm-growth limiter with gradient clipping off (the switch in
// pretrainOne). Editing a recipe is a change to these lists, not only to
// the place that declares it.
var (
	recipeLR4 = []string{
		"GaLore", "GaLore-RP", "Fira", "Flora", "8-bit GaLore",
		"APOLLO", "APOLLO w. SVD", "APOLLO-Tensor", "APOLLO-Mini",
		"Q-APOLLO", "Q-APOLLO-Mini", "Q-GaLore",
	}
	recipeLimiter = []string{
		"APOLLO", "APOLLO w. SVD", "APOLLO-Mini", "APOLLO-Tensor", "Q-APOLLO", "Q-APOLLO-Mini",
	}
)

func TestRecipeTable(t *testing.T) {
	for _, name := range zooNames {
		want := 1.0
		if slices.Contains(recipeLR4, name) {
			want = 4
		}
		if got := methodLRScale(name); got != want {
			t.Errorf("%s trains at %v× the proxy LR, recorded %v×", name, got, want)
		}
	}
	_ = recipeLimiter // checked once the clip switch is a field of the method
}
