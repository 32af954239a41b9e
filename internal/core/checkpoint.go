// Checkpoint hooks for StructuredAdamW, mirroring the optim.StateSaver /
// optim.StateLoader implementations of the baseline zoo (see
// internal/optim/checkpoint.go for the canonical-form contract). APOLLO
// itself needs none here: its state is optim.Projected's, whose canonical
// layout is exactly what Table 1 advertises — the rank-space moments plus
// the projector seed/phase and the limiter's previous norm — so a checkpoint
// restores the trajectory bit-for-bit without ever persisting the random
// projection matrix.
package core

import (
	"fmt"

	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// CaptureGlobals implements optim.StateSaver (no global cursors).
func (s *StructuredAdamW) CaptureGlobals() ([]uint64, error) { return nil, nil }

// CaptureParam implements optim.StateSaver — layout: Scalars [t, prevNorm
// bits]; RowMats [m, v]. Non-matrix parameters delegate to the dense AdamW.
func (s *StructuredAdamW) CaptureParam(p *nn.Param) (*optim.ParamState, error) {
	if p.Kind != nn.KindMatrix {
		return s.dense.CaptureParam(p)
	}
	st, ok := s.states[p]
	if !ok {
		return nil, nil
	}
	return &optim.ParamState{
		Scalars: []uint64{uint64(st.t), optim.F64Bits(st.prevNorm)},
		RowMats: []*tensor.Matrix{st.m.Clone(), st.v.Clone()},
	}, nil
}

// RestoreGlobals implements optim.StateLoader.
func (s *StructuredAdamW) RestoreGlobals(gs []uint64) error {
	if len(gs) != 0 {
		return fmt.Errorf("core: StructuredAdamW: %d global cursors, want 0", len(gs))
	}
	return nil
}

// RestoreParam implements optim.StateLoader.
func (s *StructuredAdamW) RestoreParam(p *nn.Param, st *optim.ParamState) error {
	if p.Kind != nn.KindMatrix {
		return s.dense.RestoreParam(p, st)
	}
	who := "StructuredAdamW " + p.Name
	if st == nil || len(st.Scalars) != 2 || len(st.RowMats) != 2 ||
		len(st.Whole) != 0 || len(st.Blobs) != 0 || st.Sub != nil {
		return fmt.Errorf("core: %s: unexpected state layout", who)
	}
	for _, m := range st.RowMats {
		if m.Rows != p.W.Rows || m.Cols != p.W.Cols {
			return fmt.Errorf("core: %s: state matrix %dx%d, want %dx%d",
				who, m.Rows, m.Cols, p.W.Rows, p.W.Cols)
		}
	}
	s.states[p] = &structState{
		m: st.RowMats[0].Clone(), v: st.RowMats[1].Clone(),
		t: int(st.Scalars[0]), prevNorm: optim.F64From(st.Scalars[1]),
	}
	return nil
}
