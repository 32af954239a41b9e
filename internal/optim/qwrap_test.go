package optim

import (
	"math"
	"testing"

	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

func TestWeightQuantizedName(t *testing.T) {
	w := NewWeightQuantized(NewAdamW(Hyper{LR: 0.01}), 1)
	if w.Name() != "Q-AdamW" {
		t.Fatalf("name %q", w.Name())
	}
}

func TestWeightQuantizedTracksInner(t *testing.T) {
	// Q-AdamW must follow plain AdamW closely over a few steps.
	const m, n = 16, 128
	pq := matParam(t, m, n, 41)
	pf := matParam(t, m, n, 41)
	q := NewWeightQuantized(NewAdamW(Hyper{LR: 0.01}), 1)
	f := NewAdamW(Hyper{LR: 0.01})
	rng := tensor.NewRNG(42)
	for i := 0; i < 12; i++ {
		fillGrad(pq, rng)
		pf.Grad.CopyFrom(pq.Grad)
		q.Step([]*nn.Param{pq})
		f.Step([]*nn.Param{pf})
	}
	rel := tensor.Sub(pq.W, pf.W).Norm() / (pf.W.Norm() + 1e-12)
	if rel > 0.05 {
		t.Fatalf("Q- weights diverged from fp by %v", rel)
	}
}

func TestWeightQuantizedSkipsVectors(t *testing.T) {
	rng := tensor.NewRNG(43)
	vec := nn.NewParam("g", nn.KindVector, tensor.NewMatrixRand(1, 7, 0.1, rng))
	q := NewWeightQuantized(NewAdamW(Hyper{LR: 0.1}), 1)
	fillGrad(vec, rng)
	before := vec.W.Clone()
	q.Step([]*nn.Param{vec})
	// The vector must still be updated (by the inner optimizer) but must
	// not be INT8-snapped: its values should differ from any 127-level grid
	// reconstruction of before.
	if vec.W.Equal(before) {
		t.Fatal("vector not updated")
	}
	if q.WeightBytes() != 0 {
		t.Fatalf("vectors must not be quantized, got %d weight bytes", q.WeightBytes())
	}
}

func TestWeightQuantizedLRPassthrough(t *testing.T) {
	q := NewWeightQuantized(NewAdamW(Hyper{LR: 0.01}), 1)
	q.SetLR(0.5)
	if q.LR() != 0.5 {
		t.Fatalf("LR %v", q.LR())
	}
}

func TestWeightQuantizedWeightBytes(t *testing.T) {
	p := matParam(t, 16, 16, 44)
	q := NewWeightQuantized(NewAdamW(Hyper{LR: 0.01}), 1)
	rng := tensor.NewRNG(45)
	fillGrad(p, rng)
	q.Step([]*nn.Param{p})
	// 256 codes + 2 group scales (group 128).
	want := int64(256 + 4*2)
	if got := q.WeightBytes(); got != want {
		t.Fatalf("WeightBytes = %d want %d", got, want)
	}
}

func TestAdamMiniVectorSingleBlock(t *testing.T) {
	rng := tensor.NewRNG(46)
	vec := nn.NewParam("g", nn.KindVector, tensor.NewMatrixRand(1, 8, 0.1, rng))
	a := NewAdamMini(Hyper{LR: 0.01})
	fillGrad(vec, rng)
	a.Step([]*nn.Param{vec})
	// State = full M (8) + single-block V (1) = 9 floats.
	if got := a.StateBytes(); got != 4*9 {
		t.Fatalf("vector Adam-mini state %d want 36", got)
	}
}

func TestGaLoreRefreshChangesSubspace(t *testing.T) {
	const m, n, r = 8, 16, 2
	// The subspace as the canonical checkpoint layout exposes it: the SVD
	// projection is the third Whole matrix; a random projection is a pure
	// function of its seed, Scalars[2] of [t, since, seed, rng, m, ready].
	subspace := map[linalg.ProjectionKind]func(*ParamState) *tensor.Matrix{
		linalg.SVDProjection: func(st *ParamState) *tensor.Matrix { return st.Whole[2] },
		linalg.RandomProjection: func(st *ParamState) *tensor.Matrix {
			return linalg.GaussianProjection(r, m, st.Scalars[2])
		},
	}
	for _, kind := range []linalg.ProjectionKind{linalg.RandomProjection, linalg.SVDProjection} {
		p := matParam(t, m, n, 47)
		g := NewGaLore(Hyper{LR: 0.001}, LowRankConfig{Rank: r, UpdateGap: 2, Projection: kind})
		rng := tensor.NewRNG(48)
		var first *tensor.Matrix
		for i := 0; i < 5; i++ {
			fillGrad(p, rng)
			g.Step([]*nn.Param{p})
			st, err := g.CaptureParam(p)
			if err != nil || st == nil {
				t.Fatalf("%v: no captured state: %v", kind, err)
			}
			if i == 0 {
				first = subspace[kind](st)
			} else if i == 4 && subspace[kind](st).Equal(first) {
				t.Fatalf("%v projection never refreshed with UpdateGap=2", kind)
			}
		}
	}
}

func TestFactorizedAlphaDefault(t *testing.T) {
	f := NewFactorized(Hyper{LR: 0.01}, FactorizedConfig{Mode: ModeLoRA, Rank: 4})
	if got := f.scale(); math.Abs(float64(got)-2) > 1e-9 {
		t.Fatalf("default adapter scale %v want α/r = 2r/r = 2", got)
	}
}

func TestLowRankConfigValidate(t *testing.T) {
	if err := (LowRankConfig{Rank: 0}).Validate(); err == nil {
		t.Fatal("rank 0 must be rejected")
	}
	if err := (LowRankConfig{Rank: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHyperDefaults(t *testing.T) {
	h := Hyper{LR: 1}.withDefaults()
	if h.Beta1 != 0.9 || h.Beta2 != 0.999 || h.Eps != 1e-8 {
		t.Fatalf("defaults %+v", h)
	}
	// Explicit values survive.
	h2 := Hyper{LR: 1, Beta1: 0.5}.withDefaults()
	if h2.Beta1 != 0.5 {
		t.Fatalf("explicit beta1 overwritten: %v", h2.Beta1)
	}
}

func TestOrientation(t *testing.T) {
	o := orient(4, 8)
	if o.transposed || o.m != 4 || o.n != 8 {
		t.Fatalf("orient(4,8) = %+v", o)
	}
	o = orient(8, 4)
	if !o.transposed || o.m != 4 || o.n != 8 {
		t.Fatalf("orient(8,4) = %+v", o)
	}
	rng := tensor.NewRNG(49)
	g := tensor.NewMatrixRand(8, 4, 1, rng)
	var ws Workspace
	ov := ws.orientedGrad(g, o)
	if ov.Rows != 4 || ov.Cols != 8 {
		t.Fatalf("oriented gradient %dx%d", ov.Rows, ov.Cols)
	}
	p := &nn.Param{W: tensor.NewMatrix(8, 4)}
	if back := ws.lift(p, ov, 1); !back.AllClose(g, 0) {
		t.Fatal("lift(orientedGrad(g)) != g")
	}
}

func TestAdam8bitStateBytesBelowFP(t *testing.T) {
	p := matParam(t, 16, 128, 50)
	a := NewAdam8bit(Hyper{LR: 0.01}, 1)
	rng := tensor.NewRNG(51)
	fillGrad(p, rng)
	a.Step([]*nn.Param{p})
	fp := int64(4 * 2 * 16 * 128)
	if a.StateBytes() >= fp/3 {
		t.Fatalf("8-bit states %d not well below fp32 %d", a.StateBytes(), fp)
	}
}
