package bench

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// TestRecipeGolden pins the training recipe of the paper tables bit for
// bit: the final validation perplexity of a 30-step run on the 60M proxy at
// seed 1, for six methods trained by pretrainOne and for the three variants
// Fig. 5 and Table 9 used to train by hand (miniSVD, miniAtRank and an
// inline body, now catalogue rows). The expected bit patterns were recorded
// at commit 0d9d5c2, before the bodies were folded into one; the four rows
// over a random projection were re-recorded once, when projector seeds
// became keyed by parameter name and the APOLLO-Mini rows took their seed.
// A recipe that drifts (LR multiplier, clipping, seed convention, schedule)
// moves them.
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
		{"APOLLO", 0x4069de7bd603fc38, one("APOLLO")},
		{"APOLLO-Mini", 0x406eff0ac687ed6e, one("APOLLO-Mini")},
		{"Q-APOLLO", 0x4069e3703ac005b4, one("Q-APOLLO")},
		{"miniSVD", 0x4069dfb01ba019af, one("APOLLO-Mini w. SVD")},
		{"miniAtRank(2)", 0x406e53b6583152d7, func() (float64, error) {
			res, err := pretrainOne(ctx, proxy, "APOLLO-Mini (rank r)", 2, steps, 0, 1)
			return res.FinalValPPL, err
		}},
		{"svd-tensor", 0x4069fb401803a922, one("APOLLO-Tensor w. SVD")},
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

// The recipe lists as commit 0d9d5c2 applied them from two switches: the
// names trained at 4× the proxy LR and the names trained on the norm-growth
// limiter with gradient clipping off. The three figure variants joined both
// when their hand-written bodies became rows. Editing a row's recipe is a
// change to these lists too, so it cannot happen unnoticed.
var (
	recipeLR4 = []string{
		"GaLore", "GaLore-RP", "Fira", "Flora", "8-bit GaLore",
		"APOLLO", "APOLLO w. SVD", "APOLLO-Tensor", "APOLLO-Mini",
		"Q-APOLLO", "Q-APOLLO-Mini", "Q-GaLore",
		"APOLLO-Mini w. SVD", "APOLLO-Tensor w. SVD", "APOLLO-Mini (rank r)",
	}
	recipeLimiter = []string{
		"APOLLO", "APOLLO w. SVD", "APOLLO-Mini", "APOLLO-Tensor", "Q-APOLLO", "Q-APOLLO-Mini",
		"APOLLO-Mini w. SVD", "APOLLO-Tensor w. SVD", "APOLLO-Mini (rank r)",
	}
)

func TestRecipeTable(t *testing.T) {
	for _, m := range Methods() {
		want := 1.0
		if slices.Contains(recipeLR4, m.Name) {
			want = 4
		}
		if m.LRScale != want {
			t.Errorf("%s trains at %v× the proxy LR, recorded %v×", m.Name, m.LRScale, want)
		}
		if want := slices.Contains(recipeLimiter, m.Name); m.Limiter != want {
			t.Errorf("%s: limiter-instead-of-clipping is %v, recorded %v", m.Name, m.Limiter, want)
		}
	}
}
