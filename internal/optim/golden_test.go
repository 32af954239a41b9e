package optim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// The golden zoo: digests taken on the code before the projected engine
// existed (four hand-kept optimizers), so any drift in weights, canonical
// checkpoint layout, seed keying or byte accounting fails here first. The
// members that draw random numbers were re-recorded once, when their draws
// became keyed by parameter name instead of taken from one stream in list
// order; the members that draw none kept their digests through that change.
// internal/core's TestProjectedZooGolden pins the APOLLO half the same way.

// goldenParams covers every shape class a projected optimizer
// distinguishes: rows<cols, rows>cols (transposed orientation), a matrix
// whose smaller dimension does not exceed the rank (dense fallback), an
// embedding and a vector (dense fallback by kind).
func goldenParams() []*nn.Param {
	rng := tensor.NewRNG(0x60_1DE4)
	mk := func(name string, kind nn.ParamKind, rows, cols int) *nn.Param {
		return nn.NewParam(name, kind, tensor.NewMatrixRand(rows, cols, 0.1, rng))
	}
	return []*nn.Param{
		mk("wide", nn.KindMatrix, 8, 16),
		mk("tall", nn.KindMatrix, 16, 8),
		mk("small", nn.KindMatrix, 4, 12),
		mk("embed", nn.KindEmbedding, 20, 8),
		mk("gain", nn.KindVector, 1, 8),
	}
}

// goldenGrads fills seeded gradients. Step 1 keeps only the first row and
// column of every gradient so step 2's full gradient is a structural norm
// jump — the case that engages the norm-growth limiters.
func goldenGrads(ps []*nn.Param, rng *tensor.RNG, step int) {
	for _, p := range ps {
		for i := range p.Grad.Data {
			g := rng.NormFloat32()
			if step == 1 && i/p.Grad.Cols != 0 && i%p.Grad.Cols != 0 {
				g = 0
			}
			p.Grad.Data[i] = g
		}
	}
}

func hashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashMatrix(h hash.Hash, m *tensor.Matrix) {
	hashU64(h, uint64(m.Rows))
	hashU64(h, uint64(m.Cols))
	for _, f := range m.Data {
		hashU64(h, uint64(math.Float32bits(f)))
	}
}

func hashState(h hash.Hash, st *ParamState) {
	if st == nil {
		hashU64(h, 0)
		return
	}
	hashU64(h, 1)
	hashU64(h, uint64(len(st.Scalars)))
	for _, s := range st.Scalars {
		hashU64(h, s)
	}
	for _, ms := range [][]*tensor.Matrix{st.RowMats, st.Whole} {
		hashU64(h, uint64(len(ms)))
		for _, m := range ms {
			hashMatrix(h, m)
		}
	}
	hashU64(h, uint64(len(st.Blobs)))
	for _, b := range st.Blobs {
		hashU64(h, uint64(len(b)))
		h.Write(b)
	}
	hashState(h, st.Sub)
}

// goldenDigest runs opt for steps steps over the golden parameter list and
// hashes everything a resumed or sharded run depends on: every weight, the
// canonical CaptureParam output and StateBytes.
func goldenDigest(t *testing.T, opt Optimizer, steps int) string {
	t.Helper()
	return goldenResumedDigest(t, func() Optimizer { return opt }, steps, steps)
}

// goldenResumedDigest is goldenDigest of a run interrupted after step at:
// the optimizer's whole state is captured, a fresh build() restores it, and
// that instance finishes the run. With every piece of state carried across,
// the digest is the uninterrupted run's.
func goldenResumedDigest(t *testing.T, build func() Optimizer, steps, at int) string {
	t.Helper()
	ps := goldenParams()
	rng := tensor.NewRNG(0x901D)
	opt := build()
	for step := 0; step < steps; step++ {
		if step == at {
			opt = goldenResume(t, opt, build(), ps)
		}
		goldenGrads(ps, rng, step)
		opt.Step(ps)
	}
	h := sha256.New()
	for _, p := range ps {
		hashMatrix(h, p.W)
	}
	// Where the optimizer-level cursors were hashed before every draw was
	// keyed by parameter: a zero count, so the digests of members that draw
	// nothing still compare with their earlier recordings.
	hashU64(h, 0)
	for _, p := range ps {
		st, err := opt.CaptureParam(p)
		if err != nil {
			t.Fatal(err)
		}
		hashState(h, st)
	}
	hashU64(h, uint64(opt.StateBytes()))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenResume moves src's captured state into the fresh optimizer dst.
func goldenResume(t *testing.T, src, dst Optimizer, ps []*nn.Param) Optimizer {
	t.Helper()
	for _, p := range ps {
		st, err := src.CaptureParam(p)
		if err != nil {
			t.Fatal(err)
		}
		if st == nil {
			continue
		}
		if err := dst.RestoreParam(p, st); err != nil {
			t.Fatalf("%s: restore %s: %v", dst.Name(), p.Name, err)
		}
	}
	return dst
}

func TestProjectedZooGolden(t *testing.T) {
	h := Hyper{LR: 0.01, WeightDecay: 0.1}
	const gap = 3
	cfg := LowRankConfig{Rank: 4, UpdateGap: gap, Seed: 21}
	rp := cfg
	rp.Projection = linalg.RandomProjection
	svd := cfg
	svd.Projection = linalg.SVDProjection
	cases := []struct {
		name string
		opt  Optimizer
		want string
	}{
		{"GaLore", NewGaLore(h, svd), "3dc333533b7e105de45df731578328dd0feb8aa5bf2b83f9fac43c050772cf4d"},
		{"GaLore-RP", NewGaLore(h, rp), "89f4e7c9da23d908219288e0e8aa508926314ba3e02151d49e4280952432cf1f"},
		{"Fira", NewFira(h, svd), "0c775713656d86e7e7db7215d90a9bcde165330bb575221cea215bdb521b3510"},
		{"Flora", NewFlora(h, cfg), "0c9509e8033d1edc472a4fedc8d211aa354b9e267b220b3c040e1f2425ded3eb"},
	}
	for _, c := range cases {
		if c.opt.Name() != c.name {
			t.Fatalf("optimizer named %q, want %q", c.opt.Name(), c.name)
		}
		if got := goldenDigest(t, c.opt, 2*gap+2); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestDenseZooGolden pins the rest of the zoo the same way, before its state
// moves onto one declaration: digests taken at commit 3060225, the last one
// where AdamW, SGD, Adam-mini, the 8-bit pair, Factorized and
// WeightQuantized each hand-kept their own allocation, accounting and
// CaptureParam/RestoreParam; the 8-bit pair, Factorized and WeightQuantized
// re-recorded when their draws became keyed by parameter name.
// internal/core's TestDenseZooGolden pins StructuredAdamW and Q-APOLLO-Mini.
// ReLoRA merges every 3 steps, so the 8-step run crosses two
// merge-and-restarts.
func TestDenseZooGolden(t *testing.T) {
	h := Hyper{LR: 0.01, WeightDecay: 0.1}
	const gap = 3
	cfg := LowRankConfig{Rank: 4, UpdateGap: gap, Seed: 21}
	rp := cfg
	rp.Projection = linalg.RandomProjection
	svd := cfg
	svd.Projection = linalg.SVDProjection
	factorized := func(mode FactorizedMode) *Factorized {
		return NewFactorized(h, FactorizedConfig{Mode: mode, Rank: 4, MergeEvery: gap, Seed: 21})
	}
	cases := []struct {
		name  string
		build func() Optimizer
		want  string
	}{
		{"AdamW", func() Optimizer { return NewAdamW(h) },
			"f75d7b59d18a861f9572c071d6da52bd3fd2c4d3f33337244f93275465941e98"},
		{"SGD", func() Optimizer { return NewSGD(h, 0) },
			"ee509e86fc80a43779c1b114bbbd252f9e745d744c133ffabba5868605fcd658"},
		{"SGD-M", func() Optimizer { return NewSGD(h, 0.9) },
			"9f0d0eb1ccbc4be7790c5229708a5e4de60dcc08c5be3a01e0c3e9f653d03bdc"},
		{"Adam-mini", func() Optimizer { return NewAdamMini(h) },
			"01f75cf1fc9bd3e14b90891084573fa52c2edd04016cf529300aa9d8f6b2d8c8"},
		{"8-bit Adam", func() Optimizer { return NewAdam8bit(h, 21) },
			"1ae40ca1810fa3af904bed27a2d4ff161d4458053a842cc5c333cf8f43b81737"},
		{"8-bit GaLore", func() Optimizer { return NewGaLore8bit(h, svd) },
			"f4405c1c03e5f3877b467843054914f7bf851ad00a08b659e0185e7cc68ce692"},
		{"8-bit GaLore", func() Optimizer { return NewGaLore8bit(h, rp) },
			"3723464a9ab29d12aa4d4537d637610e3fbc237f739b3e0fb5847bc9ff2ade42"},
		{"Low-Rank", func() Optimizer { return factorized(ModeLowRank) },
			"52387e6caaeadc6e01a4dfd363c5f458ecd3f038d3086861a47b37afc1200ff2"},
		{"LoRA", func() Optimizer { return factorized(ModeLoRA) },
			"1b585b53f8f1d051b7a062b93235b279c1e916f6f719a042d54da43a2da71d08"},
		{"ReLoRA", func() Optimizer { return factorized(ModeReLoRA) },
			"6b7d33e1d76f21adb9f4c40f1194a1897c88a0c936b9876102768566c5065969"},
		{"DoRA", func() Optimizer { return factorized(ModeDoRA) },
			"f1c38bb649014d6aad0a9b8e84e2a9d3378f40ee7342cc58aa0e81844a3aed1e"},
		{"Q-GaLore", func() Optimizer { return NewWeightQuantized(NewGaLore(h, svd), 22) },
			"3f404be1dded9a59848a8139c2539a1664833006feea90dc08269186b89f974f"},
		{"Q-8-bit Adam", func() Optimizer { return NewWeightQuantized(NewAdam8bit(h, 21), 22) },
			"850444162ac34511cf9749021a73b035939bde3653575e74355f9c328e3b4fc2"},
	}
	for i, c := range cases {
		if name := c.build().Name(); name != c.name {
			t.Fatalf("case %d: optimizer named %q, want %q", i, name, c.name)
		}
		if got := goldenDigest(t, c.build(), 2*gap+2); got != c.want {
			t.Errorf("case %d %s: digest %s, want %s", i, c.name, got, c.want)
		}
		// Interrupted after step 5 (past a refresh and a ReLoRA merge, limiter
		// armed) and resumed by a fresh instance: RestoreParam's half.
		if got := goldenResumedDigest(t, c.build, 2*gap+2, gap+2); got != c.want {
			t.Errorf("case %d %s: resumed digest %s, want %s", i, c.name, got, c.want)
		}
	}
}
