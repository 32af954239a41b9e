package zero

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"apollo/internal/core"
	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/runtime"
	"apollo/internal/tensor"
)

// The projected engine steps its parameters concurrently on the shared pool.
// Nothing a parameter's update reads belongs to another parameter, so the
// pool width must not be able to reach a single bit of the weights or of the
// canonical checkpoint state — fused, and under ZeRO, whose shards step
// concurrently on the same pool.

const widthGap = 3

// widthParams is testParams plus one matrix large enough that the kernels
// inside a parameter's step (projection matmul, Scale, Axpy) fan out too, so
// parameter-level and kernel-level tasks share the pool.
func widthParams() []*nn.Param {
	rng := tensor.NewRNG(91)
	big := nn.NewParam("big", nn.KindMatrix, tensor.NewMatrixRand(700, 48, 0.1, rng))
	return append(testParams(5), big)
}

func projectedBuilders() map[string]func() optim.Optimizer {
	h := optim.Hyper{LR: 0.01, WeightDecay: 0.1}
	low := func(kind linalg.ProjectionKind) optim.LowRankConfig {
		return optim.LowRankConfig{Rank: 4, Seed: 11, UpdateGap: widthGap, Projection: kind}
	}
	return map[string]func() optim.Optimizer{
		"GaLore":    func() optim.Optimizer { return optim.NewGaLore(h, low(linalg.SVDProjection)) },
		"GaLore-RP": func() optim.Optimizer { return optim.NewGaLore(h, low(linalg.RandomProjection)) },
		"Fira":      func() optim.Optimizer { return optim.NewFira(h, low(linalg.SVDProjection)) },
		"Flora":     func() optim.Optimizer { return optim.NewFlora(h, low(linalg.RandomProjection)) },
		"APOLLO": func() optim.Optimizer {
			return core.New(h, core.Config{Rank: 4, Seed: 11, UpdateGap: widthGap})
		},
		"APOLLO w. SVD": func() optim.Optimizer {
			return core.New(h, core.Config{Rank: 4, Seed: 11, UpdateGap: widthGap, Projection: linalg.SVDProjection})
		},
		"APOLLO-Mini": func() optim.Optimizer {
			return core.New(h, core.Config{Rank: 1, Granularity: core.Tensor, Seed: 11, UpdateGap: widthGap})
		},
	}
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

// stepDigest runs opt over widthParams and hashes every weight and the
// canonical checkpoint state.
func stepDigest(t *testing.T, opt optim.Optimizer) string {
	t.Helper()
	ps := widthParams()
	for step := 0; step < 2*widthGap+1; step++ {
		fillGrads(ps, step)
		opt.Step(ps)
	}
	h := sha256.New()
	gs, err := opt.CaptureGlobals()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gs {
		hashU64(h, g)
	}
	for _, p := range ps {
		hashMatrices(h, []*tensor.Matrix{p.W})
		st, err := opt.CaptureParam(p)
		if err != nil {
			t.Fatal(err)
		}
		for ; st != nil; st = st.Sub {
			for _, s := range st.Scalars {
				hashU64(h, s)
			}
			hashMatrices(h, st.RowMats)
			hashMatrices(h, st.Whole)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestProjectedStepWidthIndependent(t *testing.T) {
	defer runtime.SetWorkers(runtime.Workers())
	for name, build := range projectedBuilders() {
		modes := map[string]func() optim.Optimizer{
			"fused":  build,
			"zero-3": func() optim.Optimizer { return NewSharded(build(), 3) },
		}
		var want string
		for mode, mk := range modes {
			for _, width := range []int{1, 2, 3, 4} {
				runtime.SetWorkers(width)
				got := stepDigest(t, mk())
				if want == "" {
					want = got
				}
				if got != want {
					t.Errorf("%s %s at %d workers: digest %s, want %s", name, mode, width, got, want)
				}
			}
		}
	}
}
