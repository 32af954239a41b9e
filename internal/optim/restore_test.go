package optim

import (
	"runtime"
	"testing"

	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// A checkpoint's scalar channel carries the projector's projected dimension,
// and a random projection is regenerated at that size on restore. These
// tests tamper with a genuine captured state the way a corrupt or foreign
// file would; every variant must be refused before anything is sized by the
// file's number (on the code before the check, the small-M cases restored
// cleanly and the next Step panicked in MatMul, and the huge-M case
// allocated 2 GiB).
func TestRestoreRejectsForeignProjectedDim(t *testing.T) {
	const m, n, r = 8, 16, 2
	h := Hyper{LR: 0.01}
	cases := []struct {
		name   string
		build  func(kind linalg.ProjectionKind) Optimizer
		mIndex int // position of the projected dimension in Scalars
		pIndex int // position of the SVD projection in Whole
	}{
		{"engine", func(k linalg.ProjectionKind) Optimizer {
			return NewFira(h, LowRankConfig{Rank: r, Projection: k})
		}, 5, 2},
		{"GaLore8bit", func(k linalg.ProjectionKind) Optimizer {
			return NewGaLore8bit(h, LowRankConfig{Rank: r, Projection: k})
		}, 4, 0},
	}
	for _, c := range cases {
		for _, kind := range []linalg.ProjectionKind{linalg.RandomProjection, linalg.SVDProjection} {
			p := matParam(t, m, n, 61)
			src := c.build(kind)
			fillGrad(p, tensor.NewRNG(62))
			src.Step([]*nn.Param{p})
			capture := func() *ParamState {
				st, err := src.CaptureParam(p)
				if err != nil || st == nil {
					t.Fatalf("%s/%v: no captured state: %v", c.name, kind, err)
				}
				if st.Scalars[c.mIndex] != m {
					t.Fatalf("%s/%v: Scalars[%d] = %d is not the projected dimension", c.name, kind, c.mIndex, st.Scalars[c.mIndex])
				}
				return st
			}
			if err := c.build(kind).RestoreParam(p, capture()); err != nil {
				t.Fatalf("%s/%v: untampered state refused: %v", c.name, kind, err)
			}

			type tamper struct {
				what string
				do   func(st *ParamState)
			}
			tampers := []tamper{
				{"small M", func(st *ParamState) { st.Scalars[c.mIndex] = m / 2 }},
				{"huge M", func(st *ParamState) { st.Scalars[c.mIndex] = 1 << 28 }},
			}
			if kind == linalg.SVDProjection {
				tampers = append(tampers, tamper{"SVD P with m+1 columns", func(st *ParamState) {
					st.Whole[c.pIndex] = tensor.NewMatrix(r, m+1)
				}})
			}
			for _, tc := range tampers {
				what, st := tc.what, capture()
				tc.do(st)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := c.build(kind).RestoreParam(p, st)
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Errorf("%s/%v: %s restored without error", c.name, kind, what)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Errorf("%s/%v: %s allocated %d bytes before being refused", c.name, kind, what, grew)
				}
			}
		}
	}
}

// TestRestoreRejectsMalformedState tampers with genuine captured states one
// field at a time, the way a corrupt or foreign checkpoint would: every
// count, shape, payload length and layout constant the declaration fixes
// must be refused, and a refused restore must install nothing.
func TestRestoreRejectsMalformedState(t *testing.T) {
	h := Hyper{LR: 0.01}
	lora := func() Optimizer { return NewFactorized(h, FactorizedConfig{Mode: ModeLoRA, Rank: 2}) }
	adam8 := func() Optimizer { return NewAdam8bit(h, 3) }
	adamw := func() Optimizer { return NewAdamW(h) }
	qgalore := func() Optimizer {
		return NewWeightQuantized(NewGaLore(h, LowRankConfig{Rank: 2}), 4)
	}
	cases := []struct {
		what  string
		build func() Optimizer
		do    func(st *ParamState)
	}{
		{"a scalar too many", adamw, func(st *ParamState) { st.Scalars = append(st.Scalars, 0) }},
		{"a missing moment", adamw, func(st *ParamState) { st.RowMats = st.RowMats[:1] }},
		{"a moment in the wrong channel", adamw, func(st *ParamState) {
			st.Whole, st.RowMats = st.RowMats[1:], st.RowMats[:1]
		}},
		{"a transposed moment", adamw, func(st *ParamState) { st.RowMats[1] = st.RowMats[1].T() }},
		{"a header that disagrees with its payload", adamw, func(st *ParamState) {
			st.RowMats[0].Data = st.RowMats[0].Data[:5]
		}},
		{"a nil matrix", adamw, func(st *ParamState) { st.RowMats[0] = nil }},
		{"nested state under a plain optimizer", adamw, func(st *ParamState) { st.Sub = &ParamState{} }},
		{"the frozen-base flag of another mode", lora, func(st *ParamState) { st.Scalars[fHasW0] = 0 }},
		{"a DoRA magnitude step count under LoRA", lora, func(st *ParamState) { st.Scalars[fTM] = 7 }},
		{"DoRA's extra slots under LoRA", lora, func(st *ParamState) {
			st.Whole = append(st.Whole, tensor.NewMatrix(1, 16))
		}},
		{"short INT8 codes", adam8, func(st *ParamState) { st.Blobs[0] = st.Blobs[0][:100] }},
		{"an odd scale blob", adam8, func(st *ParamState) { st.Blobs[3] = append(st.Blobs[3], 0) }},
		{"a quantized-weight flag that is not a flag", qgalore, func(st *ParamState) { st.Scalars[0] = 2 }},
		{"a quantized weight without its blobs", qgalore, func(st *ParamState) { st.Blobs = nil }},
		{"a matrix beside a quantized weight", qgalore, func(st *ParamState) {
			st.Whole = append(st.Whole, tensor.NewMatrix(1, 1))
		}},
		{"a malformed nested state", qgalore, func(st *ParamState) { st.Sub.Scalars = st.Sub.Scalars[1:] }},
	}
	for _, c := range cases {
		p := matParam(t, 8, 16, 71)
		src := c.build()
		fillGrad(p, tensor.NewRNG(72))
		src.Step([]*nn.Param{p})
		st, err := src.CaptureParam(p)
		if err != nil || st == nil {
			t.Fatalf("%s: no captured state: %v", c.what, err)
		}
		if err := c.build().RestoreParam(p, st); err != nil {
			t.Fatalf("%s: untampered state refused: %v", c.what, err)
		}
		c.do(st)
		dst := c.build()
		if err := dst.RestoreParam(p, st); err == nil {
			t.Errorf("%s (%s): restored without error", c.what, dst.Name())
		}
		if left, _ := dst.CaptureParam(p); left != nil {
			t.Errorf("%s (%s): a refused restore left state behind", c.what, dst.Name())
		}
	}
	if err := NewSGD(h, 0).RestoreParam(matParam(t, 8, 16, 71), &ParamState{}); err == nil {
		t.Error("stateless SGD accepted a state")
	}
}
