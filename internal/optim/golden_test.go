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
// checkpoint layout, seed order or byte accounting fails here first.
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
// canonical CaptureGlobals/CaptureParam output and StateBytes.
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
	gs, err := opt.CaptureGlobals()
	if err != nil {
		t.Fatal(err)
	}
	hashU64(h, uint64(len(gs)))
	for _, g := range gs {
		hashU64(h, g)
	}
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
	gs, err := src.CaptureGlobals()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreGlobals(gs); err != nil {
		t.Fatal(err)
	}
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
		{"GaLore", NewGaLore(h, svd), "dac0829fa19c49bc9dec0377c7346127b44b146c13cc7a349d060e0e816e47aa"},
		{"GaLore-RP", NewGaLore(h, rp), "17b6bb3762b8bfcff9446a1d85586e344136f04b5e45f4844c84ab57552d29f2"},
		{"Fira", NewFira(h, svd), "8a9dbf1b17a672d3b20572f2783d1d58c2227beec03cbd9d8ed4b880f62aee14"},
		{"Flora", NewFlora(h, cfg), "e6cc8d1efcb2c240d7b2e0082c24bb0cbbe816a0f9f6b12de0c92cbbfa008a90"},
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
// CaptureParam/RestoreParam. internal/core's TestDenseZooGolden pins
// StructuredAdamW and Q-APOLLO-Mini. ReLoRA merges every 3 steps, so the
// 8-step run crosses two merge-and-restarts.
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
			"7bd07494871d0d0cc6f71cf4bfcfe4e4b5546ea6a2e34d943d6e285e8b7933ab"},
		{"8-bit GaLore", func() Optimizer { return NewGaLore8bit(h, svd) },
			"c990ce5711ba08580a42559f395041b3a709b6b879c2dd3e3b3a229752f93c0f"},
		{"8-bit GaLore", func() Optimizer { return NewGaLore8bit(h, rp) },
			"7463a2870de27c8e5833750138c3b9dd495803ae24dc8935e188d04fb37bc069"},
		{"Low-Rank", func() Optimizer { return factorized(ModeLowRank) },
			"a6f75f0081c5d4d3edee697d0aec0e441ded64f96a6b45e6d8481bce5cb5a20e"},
		{"LoRA", func() Optimizer { return factorized(ModeLoRA) },
			"8ace2c4f9553be6759634c18940d1adfe75cda200f490f34e73883fa5becb1bb"},
		{"ReLoRA", func() Optimizer { return factorized(ModeReLoRA) },
			"960e2b1ba5a4f896f9d37e0da7ac6a2a73e4d5fed5f66555b15df819ae8e6909"},
		{"DoRA", func() Optimizer { return factorized(ModeDoRA) },
			"f9ad916a4afce97ba77bdd141a59d9e58af09cdfaeed58a3f803c72cac5bfe34"},
		{"Q-GaLore", func() Optimizer { return NewWeightQuantized(NewGaLore(h, svd), 22) },
			"016c8cc892827a97ff69d8f7f6fefe32954f98e9b07573faff48c949f8e3eec0"},
		{"Q-8-bit Adam", func() Optimizer { return NewWeightQuantized(NewAdam8bit(h, 21), 22) },
			"a28a0f56c9aff6518aeb5ec3fba854f72f06c16f17ed78a83e9448f02ce1a8c4"},
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
