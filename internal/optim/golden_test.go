package optim_test

import (
	"testing"

	"apollo/internal/linalg"
	"apollo/internal/optim"
	"apollo/internal/optim/optimtest"
)

// The golden zoo: digests taken on the code before the projected engine
// existed (four hand-kept optimizers), so any drift in weights, canonical
// checkpoint layout, seed keying or byte accounting fails here first. The
// members that draw random numbers were re-recorded once, when their draws
// became keyed by parameter name instead of taken from one stream in list
// order; the members that draw none kept their digests through that change.
// internal/core's TestProjectedZooGolden pins the APOLLO half the same way,
// on the same harness (internal/optim/optimtest).

func TestProjectedZooGolden(t *testing.T) {
	h := optim.Hyper{LR: 0.01, WeightDecay: 0.1}
	const gap = 3
	cfg := optim.LowRankConfig{Rank: 4, UpdateGap: gap, Seed: 21}
	rp := cfg
	rp.Projection = linalg.RandomProjection
	svd := cfg
	svd.Projection = linalg.SVDProjection
	cases := []struct {
		name string
		opt  optim.Optimizer
		want string
	}{
		{"GaLore", optim.NewGaLore(h, svd), "3dc333533b7e105de45df731578328dd0feb8aa5bf2b83f9fac43c050772cf4d"},
		{"GaLore-RP", optim.NewGaLore(h, rp), "89f4e7c9da23d908219288e0e8aa508926314ba3e02151d49e4280952432cf1f"},
		{"Fira", optim.NewFira(h, svd), "0c775713656d86e7e7db7215d90a9bcde165330bb575221cea215bdb521b3510"},
		{"Flora", optim.NewFlora(h, cfg), "0c9509e8033d1edc472a4fedc8d211aa354b9e267b220b3c040e1f2425ded3eb"},
	}
	for _, c := range cases {
		if c.opt.Name() != c.name {
			t.Fatalf("optimizer named %q, want %q", c.opt.Name(), c.name)
		}
		if got := optimtest.Digest(t, c.opt, 2*gap+2); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestDenseZooGolden pins the rest of the zoo the same way, before its state
// moves onto one declaration: digests taken at commit 3060225, the last one
// where AdamW, SGD, Adam-mini, the 8-bit pair, optim.Factorized and
// WeightQuantized each hand-kept their own allocation, accounting and
// CaptureParam/RestoreParam; the 8-bit pair, optim.Factorized and WeightQuantized
// re-recorded when their draws became keyed by parameter name.
// internal/core's TestDenseZooGolden pins StructuredAdamW and Q-APOLLO-Mini.
// ReLoRA merges every 3 steps, so the 8-step run crosses two
// merge-and-restarts.
func TestDenseZooGolden(t *testing.T) {
	h := optim.Hyper{LR: 0.01, WeightDecay: 0.1}
	const gap = 3
	cfg := optim.LowRankConfig{Rank: 4, UpdateGap: gap, Seed: 21}
	rp := cfg
	rp.Projection = linalg.RandomProjection
	svd := cfg
	svd.Projection = linalg.SVDProjection
	factorized := func(mode optim.FactorizedMode) *optim.Factorized {
		return optim.NewFactorized(h, optim.FactorizedConfig{Mode: mode, Rank: 4, MergeEvery: gap, Seed: 21})
	}
	cases := []struct {
		name  string
		build func() optim.Optimizer
		want  string
	}{
		{"AdamW", func() optim.Optimizer { return optim.NewAdamW(h) },
			"f75d7b59d18a861f9572c071d6da52bd3fd2c4d3f33337244f93275465941e98"},
		{"SGD", func() optim.Optimizer { return optim.NewSGD(h, 0) },
			"ee509e86fc80a43779c1b114bbbd252f9e745d744c133ffabba5868605fcd658"},
		{"SGD-M", func() optim.Optimizer { return optim.NewSGD(h, 0.9) },
			"9f0d0eb1ccbc4be7790c5229708a5e4de60dcc08c5be3a01e0c3e9f653d03bdc"},
		{"Adam-mini", func() optim.Optimizer { return optim.NewAdamMini(h) },
			"01f75cf1fc9bd3e14b90891084573fa52c2edd04016cf529300aa9d8f6b2d8c8"},
		{"8-bit Adam", func() optim.Optimizer { return optim.NewAdam8bit(h, 21) },
			"1ae40ca1810fa3af904bed27a2d4ff161d4458053a842cc5c333cf8f43b81737"},
		{"8-bit GaLore", func() optim.Optimizer { return optim.NewGaLore8bit(h, svd) },
			"f4405c1c03e5f3877b467843054914f7bf851ad00a08b659e0185e7cc68ce692"},
		{"8-bit GaLore", func() optim.Optimizer { return optim.NewGaLore8bit(h, rp) },
			"3723464a9ab29d12aa4d4537d637610e3fbc237f739b3e0fb5847bc9ff2ade42"},
		{"Low-Rank", func() optim.Optimizer { return factorized(optim.ModeLowRank) },
			"52387e6caaeadc6e01a4dfd363c5f458ecd3f038d3086861a47b37afc1200ff2"},
		{"LoRA", func() optim.Optimizer { return factorized(optim.ModeLoRA) },
			"1b585b53f8f1d051b7a062b93235b279c1e916f6f719a042d54da43a2da71d08"},
		{"ReLoRA", func() optim.Optimizer { return factorized(optim.ModeReLoRA) },
			"6b7d33e1d76f21adb9f4c40f1194a1897c88a0c936b9876102768566c5065969"},
		{"DoRA", func() optim.Optimizer { return factorized(optim.ModeDoRA) },
			"f1c38bb649014d6aad0a9b8e84e2a9d3378f40ee7342cc58aa0e81844a3aed1e"},
		{"Q-GaLore", func() optim.Optimizer { return optim.NewWeightQuantized(optim.NewGaLore(h, svd), 22) },
			"3f404be1dded9a59848a8139c2539a1664833006feea90dc08269186b89f974f"},
		{"Q-8-bit Adam", func() optim.Optimizer { return optim.NewWeightQuantized(optim.NewAdam8bit(h, 21), 22) },
			"850444162ac34511cf9749021a73b035939bde3653575e74355f9c328e3b4fc2"},
	}
	for i, c := range cases {
		if name := c.build().Name(); name != c.name {
			t.Fatalf("case %d: optimizer named %q, want %q", i, name, c.name)
		}
		if got := optimtest.Digest(t, c.build(), 2*gap+2); got != c.want {
			t.Errorf("case %d %s: digest %s, want %s", i, c.name, got, c.want)
		}
		// Interrupted after step 5 (past a refresh and a ReLoRA merge, limiter
		// armed) and resumed by a fresh instance: RestoreParam's half.
		if got := optimtest.ResumedDigest(t, c.build, 2*gap+2, gap+2); got != c.want {
			t.Errorf("case %d %s: resumed digest %s, want %s", i, c.name, got, c.want)
		}
	}
}
