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
	ps := goldenParams()
	rng := tensor.NewRNG(0x901D)
	for step := 0; step < steps; step++ {
		goldenGrads(ps, rng, step)
		opt.Step(ps)
	}
	h := sha256.New()
	for _, p := range ps {
		hashMatrix(h, p.W)
	}
	saver := opt.(optim.StateSaver)
	gs, err := saver.CaptureGlobals()
	if err != nil {
		t.Fatal(err)
	}
	hashU64(h, uint64(len(gs)))
	for _, g := range gs {
		hashU64(h, g)
	}
	for _, p := range ps {
		st, err := saver.CaptureParam(p)
		if err != nil {
			t.Fatal(err)
		}
		hashState(h, st)
	}
	hashU64(h, uint64(opt.StateBytes()))
	return hex.EncodeToString(h.Sum(nil))
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
