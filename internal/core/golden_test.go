package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// The golden zoo, APOLLO half (internal/optim's TestProjectedZooGolden pins
// GaLore, Fira and Flora): digests taken on the code before the projected
// engine existed, so any drift in weights, canonical checkpoint layout, seed
// order or byte accounting fails here first. The helpers mirror optim's
// golden_test.go — test code cannot be shared across the two packages.

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

func hashState(h hash.Hash, st *optim.ParamState) {
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
func goldenDigest(t *testing.T, opt optim.Optimizer, steps int) string {
	t.Helper()
	return goldenResumedDigest(t, func() optim.Optimizer { return opt }, steps, steps)
}

// goldenResumedDigest is goldenDigest of a run interrupted after step at:
// the optimizer's whole state is captured, a fresh build() restores it, and
// that instance finishes the run. With every piece of state carried across,
// the digest is the uninterrupted run's.
func goldenResumedDigest(t *testing.T, build func() optim.Optimizer, steps, at int) string {
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
func goldenResume(t *testing.T, src, dst optim.Optimizer, ps []*nn.Param) optim.Optimizer {
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
	h := optim.Hyper{LR: 0.01, WeightDecay: 0.1}
	const gap = 3
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"APOLLO", Config{Rank: 4, UpdateGap: gap, Seed: 21}, "037b34d8debbc09b98d668a5daa2d52c8f39c2c67807d65d4a0dea5817691434"},
		{"APOLLO w. SVD", Config{Rank: 4, UpdateGap: gap, Seed: 21, Projection: linalg.SVDProjection}, "7fa48b6341f836a8d525e07292453554203b93c07e505743b8f26478391e9550"},
		// Mini at its own default seed, with a short gap so refreshes happen.
		{"APOLLO-Mini", Config{Rank: 1, Granularity: Tensor, UpdateGap: gap}, "9cbfb9b7d5cb96c5e5bf28aac0852360e9677f46551deaa846fe02f1b739fe88"},
		{"APOLLO", Config{Rank: 4, UpdateGap: gap, Seed: 21, DisableNL: true}, "4526155186aa30b3377ac0759ff12faa2df91a1e1a25d861061d1e0c651d6313"},
	}
	for _, c := range cases {
		opt := New(h, c.cfg)
		if opt.Name() != c.name {
			t.Fatalf("optimizer named %q, want %q", opt.Name(), c.name)
		}
		if got := goldenDigest(t, opt, 2*gap+2); got != c.want {
			t.Errorf("%s %+v: digest %s, want %s", c.name, c.cfg, got, c.want)
		}
	}
}

// TestDenseZooGolden pins the members of the rest of the zoo that live in or
// wrap this package (internal/optim's TestDenseZooGolden has the others):
// digests taken at commit 3060225, the last one where StructuredAdamW kept
// its own allocation, accounting and checkpoint hooks in checkpoint.go and
// WeightQuantized hand-validated its nested state.
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
			"0712df1bf9d6afdd84a4948b0e3488079078f8d9abbffef7d1c78a8555e7ef4a"},
		{"Q-APOLLO", func() optim.Optimizer {
			return optim.NewWeightQuantized(New(h, Config{Rank: 4, UpdateGap: 3, Seed: 21}), 22)
		},
			"a279d532e1234fee7cb3e175795c0018a2e8a895502ac8bb02f81c8208686350"},
	}
	for i, c := range cases {
		if name := c.build().Name(); name != c.name {
			t.Fatalf("case %d: optimizer named %q, want %q", i, name, c.name)
		}
		if got := goldenDigest(t, c.build(), 8); got != c.want {
			t.Errorf("case %d %s: digest %s, want %s", i, c.name, got, c.want)
		}
		// Interrupted after step 5 and resumed by a fresh instance:
		// RestoreParam's half.
		if got := goldenResumedDigest(t, c.build, 8, 5); got != c.want {
			t.Errorf("case %d %s: resumed digest %s, want %s", i, c.name, got, c.want)
		}
	}
}
