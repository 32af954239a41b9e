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
	saver := opt.(StateSaver)
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
