package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/runtime"
	"apollo/internal/tensor"
	"apollo/internal/zero"
)

// widthParams is shardParityParams plus a matrix and an embedding large
// enough that, for every row, both the walk over the covered parameters and
// the fallback's fan out on the pool.
func widthParams() []*nn.Param {
	rng := tensor.NewRNG(91)
	return append(shardParityParams(),
		nn.NewParam("big", nn.KindMatrix, tensor.NewMatrixRand(96, 48, 0.1, rng)),
		nn.NewParam("vocab", nn.KindEmbedding, tensor.NewMatrixRand(96, 48, 0.1, rng)))
}

// TestCatalogueWidthIndependent is the pool-width contract over the whole
// catalogue. Every member steps its covered parameters concurrently on the
// shared pool (optim.Base.Walk), and nothing a parameter's update reads
// belongs to another parameter, so the width must not reach a single bit of
// the weights or of the captured state, the Sub chain included — fused, and
// under ZeRO, whose one optimizer steps the whole list. The horizon crosses
// the catalogue's step-51 subspace refresh and ReLoRA's restart.
func TestCatalogueWidthIndependent(t *testing.T) {
	defer runtime.SetWorkers(runtime.Workers())
	const steps, rank = 52, 4
	grads := widthGrads(steps)
	for _, m := range Methods() {
		build := func() optim.Optimizer { return m.New(optim.Hyper{LR: 0.01, WeightDecay: 0.1}, m.Rank(rank, 16), 11) }
		modes := []struct {
			name string
			mk   func() optim.Optimizer
		}{
			{"fused", build},
			{"zero-3", func() optim.Optimizer { return zero.NewSharded(build(), 3) }},
		}
		t.Run(m.Name, func(t *testing.T) {
			var want string
			for _, mode := range modes {
				for width := 1; width <= 4; width++ {
					runtime.SetWorkers(width)
					got := widthDigest(t, mode.mk(), grads)
					if want == "" {
						want = got
					}
					if got != want {
						t.Errorf("%s at %d workers: digest %s, want %s", mode.name, width, got, want)
					}
				}
			}
		})
	}
}

// widthGrads draws the gradients of widthParams for each step, once for
// every run to copy.
func widthGrads(steps int) [][][]float32 {
	grads := make([][][]float32, steps)
	for s := range grads {
		rng := tensor.NewRNG(uint64(s)*7919 + 13)
		for _, p := range widthParams() {
			g := make([]float32, len(p.Grad.Data))
			for i := range g {
				g[i] = rng.NormFloat32() * 0.05
			}
			grads[s] = append(grads[s], g)
		}
	}
	return grads
}

// widthDigest steps opt over widthParams with grads and hashes every weight
// and every parameter's captured state.
func widthDigest(t *testing.T, opt optim.Optimizer, grads [][][]float32) string {
	t.Helper()
	ps := widthParams()
	for _, step := range grads {
		for i, p := range ps {
			copy(p.Grad.Data, step[i])
		}
		opt.Step(ps)
	}
	h := sha256.New()
	for _, p := range ps {
		hashMatrices(h, []*tensor.Matrix{p.W})
		st, err := opt.CaptureParam(p)
		if err != nil {
			t.Fatal(err)
		}
		for ; st != nil; st = st.Sub {
			hashU64(h, uint64(len(st.Scalars)))
			for _, s := range st.Scalars {
				hashU64(h, s)
			}
			hashMatrices(h, st.RowMats)
			hashMatrices(h, st.Whole)
			hashU64(h, uint64(len(st.Blobs)))
			for _, b := range st.Blobs {
				hashU64(h, uint64(len(b)))
				h.Write(b)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashMatrices(h hash.Hash, ms []*tensor.Matrix) {
	hashU64(h, uint64(len(ms)))
	for _, m := range ms {
		hashU64(h, uint64(m.Rows)<<32|uint64(m.Cols))
		for _, f := range m.Data {
			hashU64(h, uint64(math.Float32bits(f)))
		}
	}
}
