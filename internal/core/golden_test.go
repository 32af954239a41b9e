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
// engine existed, and re-recorded once when projector seeds became keyed by
// parameter name, so any drift in weights, canonical checkpoint layout, seed
// keying or byte accounting fails here first. The helpers mirror optim's
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
// canonical CaptureParam output and StateBytes.
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
func goldenResume(t *testing.T, src, dst optim.Optimizer, ps []*nn.Param) optim.Optimizer {
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
		{"APOLLO", Config{Rank: 4, UpdateGap: gap, Seed: 21, DisableNL: true}, "6a7058de46c88a1e54e18d8db28a3270b792d0c78eb02fafa37e596e6a0fd408"},
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
