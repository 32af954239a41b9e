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
	type checkpointable interface {
		Optimizer
		StateSaver
		StateLoader
	}
	cases := []struct {
		name   string
		build  func(kind linalg.ProjectionKind) checkpointable
		mIndex int // position of the projected dimension in Scalars
		pIndex int // position of the SVD projection in Whole
	}{
		{"engine", func(k linalg.ProjectionKind) checkpointable {
			return NewFira(h, LowRankConfig{Rank: r, Projection: k})
		}, 5, 2},
		{"GaLore8bit", func(k linalg.ProjectionKind) checkpointable {
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
