package core

import (
	"testing"

	"apollo/internal/linalg"
	"apollo/internal/optim"
	"apollo/internal/optim/optimtest"
)

// The golden zoo, APOLLO half (internal/optim's TestProjectedZooGolden pins
// GaLore, Fira and Flora): digests taken on the code before the projected
// engine existed, and re-recorded once when projector seeds became keyed by
// parameter name, so any drift in weights, canonical checkpoint layout, seed
// keying or byte accounting fails here first. Both halves run on one
// harness, internal/optim/optimtest.

func TestProjectedZooGolden(t *testing.T) {
	h := optim.Hyper{LR: 0.01, WeightDecay: 0.1}
	const gap = 3
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"APOLLO", Config{Rank: 4, UpdateGap: gap, Seed: 21}, "3623afd5645a37adf2d450968d77d1300ac0886d1d3a8a239415eedbad4fa126"},
		{"APOLLO w. SVD", Config{Rank: 4, UpdateGap: gap, Seed: 21, Projection: linalg.SVDProjection}, "d3fb9c74135346417a3286723eec6a97f52cc7286d6ee02a23dec3352cc90ee7"},
		// Mini at its own default seed, with a short gap so refreshes happen.
		{"APOLLO-Mini", Config{Rank: 1, Granularity: Tensor, UpdateGap: gap}, "8e243c1a953ac0d354b6ef60248f670d90dcc01e3df52e381f081936a9c9afd0"},
		{"APOLLO no NL", Config{Rank: 4, UpdateGap: gap, Seed: 21, DisableNL: true}, "6a7058de46c88a1e54e18d8db28a3270b792d0c78eb02fafa37e596e6a0fd408"},
	}
	for _, c := range cases {
		opt := New(h, c.cfg)
		if opt.Name() != c.name {
			t.Fatalf("optimizer named %q, want %q", opt.Name(), c.name)
		}
		if got := optimtest.Digest(t, opt, 2*gap+2); got != c.want {
			t.Errorf("%s %+v: digest %s, want %s", c.name, c.cfg, got, c.want)
		}
	}
}

// TestDenseZooGolden pins the members of the rest of the zoo that live in or
// wrap this package (internal/optim's TestDenseZooGolden has the others):
// digests taken at commit 3060225, the last one where StructuredAdamW kept
// its own allocation, accounting and checkpoint hooks in checkpoint.go and
// WeightQuantized hand-validated its nested state. The two Q- rows were
// re-recorded when their draws became keyed by parameter name.
func TestDenseZooGolden(t *testing.T) {
	h := optim.Hyper{LR: 0.01, WeightDecay: 0.1}
	noLimiter := func() optim.Optimizer {
		s := NewStructuredAdamW(h, Channel)
		s.Gamma = 0
		return s
	}
	cases := []struct {
		name  string
		build func() optim.Optimizer
		want  string
	}{
		{"StructuredAdamW-channel", func() optim.Optimizer { return NewStructuredAdamW(h, Channel) },
			"a69846cb27a06733c608098f79fefa9a7c82199c5a56b7c02fa1adb34f2e8440"},
		{"StructuredAdamW-tensor", func() optim.Optimizer { return NewStructuredAdamW(h, Tensor) },
			"2b2bc1d1148adf5ad015e388fe09953ad000bb5f437e9f734bdadc513d03c4bd"},
		{"StructuredAdamW-channel", noLimiter,
			"e517bd98156076fc7bf4f79b625e1826c01d3ef13fb1802cbb4ac5602365ebdb"},
		{"Q-APOLLO-Mini", func() optim.Optimizer { return optim.NewWeightQuantized(NewMini(h), 22) },
			"c5cea8445e543ec62e2b85abeae8d084145e507a0953bf071364cabe8552480a"},
		{"Q-APOLLO", func() optim.Optimizer {
			return optim.NewWeightQuantized(New(h, Config{Rank: 4, UpdateGap: 3, Seed: 21}), 22)
		},
			"5e92adb1db2fa39a3f4dbe403cd8b182f639df8f533d7ca8d1f516d5c1dec082"},
	}
	for i, c := range cases {
		if name := c.build().Name(); name != c.name {
			t.Fatalf("case %d: optimizer named %q, want %q", i, name, c.name)
		}
		if got := optimtest.Digest(t, c.build(), 8); got != c.want {
			t.Errorf("case %d %s: digest %s, want %s", i, c.name, got, c.want)
		}
		// Interrupted after step 5 and resumed by a fresh instance:
		// RestoreParam's half.
		if got := optimtest.ResumedDigest(t, c.build, 8, 5); got != c.want {
			t.Errorf("case %d %s: resumed digest %s, want %s", i, c.name, got, c.want)
		}
	}
}
