// Package optimtest holds the golden-zoo harness that the optimizer tests of
// internal/optim and internal/core share: one seeded parameter list, one
// gradient schedule and one digest over everything a resumed or sharded run
// depends on. Test code cannot cross package boundaries, so the harness is
// an ordinary package, imported only by _test.go files.
package optimtest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// Params covers every shape class a projected optimizer distinguishes:
// rows<cols, rows>cols (transposed orientation), a matrix whose smaller
// dimension does not exceed the rank (dense fallback), an embedding and a
// vector (dense fallback by kind).
func Params() []*nn.Param {
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

// Grads fills seeded gradients. Step 1 keeps only the first row and column
// of every gradient so step 2's full gradient is a structural norm jump —
// the case that engages the norm-growth limiters.
func Grads(ps []*nn.Param, rng *tensor.RNG, step int) {
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

// Digest runs opt for steps steps over Params and hashes everything a
// resumed or sharded run depends on: every weight, the canonical
// CaptureParam output and StateBytes.
func Digest(t testing.TB, opt optim.Optimizer, steps int) string {
	t.Helper()
	return ResumedDigest(t, func() optim.Optimizer { return opt }, steps, steps)
}

// ResumedDigest is Digest of a run interrupted after step at: the
// optimizer's whole state is captured, a fresh build() restores it, and that
// instance finishes the run. With every piece of state carried across, the
// digest is the uninterrupted run's.
func ResumedDigest(t testing.TB, build func() optim.Optimizer, steps, at int) string {
	t.Helper()
	ps := Params()
	rng := tensor.NewRNG(0x901D)
	opt := build()
	for step := 0; step < steps; step++ {
		if step == at {
			opt = resume(t, opt, build(), ps)
		}
		Grads(ps, rng, step)
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

// resume moves src's captured state into the fresh optimizer dst.
func resume(t testing.TB, src, dst optim.Optimizer, ps []*nn.Param) optim.Optimizer {
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
