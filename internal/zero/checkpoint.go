// Checkpoint gather/scatter: the elastic half of checkpoint/resume. A
// Sharded optimizer saves its state in the *canonical unsharded layout* —
// for every parameter, the full-row state exactly as the inner optimizer
// stepping the list itself would expose it — by merging the row segments of
// a split parameter on capture and re-slicing them for the current partition
// on restore. Because the on-disk layout never mentions the world size, a
// checkpoint written under `-replicas N -zero` resumes under any
// `-replicas M -zero` (the new Init computes a fresh partition and the
// scatter follows it) or under a plain unsharded optimizer, bit-for-bit.
//
// Globals (RNG phases: projector seeds, factor inits, stochastic rounding)
// are the one inner optimizer's own — there is no second copy to disagree
// with.
package zero

import (
	"fmt"

	"apollo/internal/nn"
	"apollo/internal/optim"
)

// CheckpointName implements optim.CheckpointNamer: checkpoints are keyed by
// the inner optimizer's identity, not the world size, so they reshard.
func (s *Sharded) CheckpointName() string {
	if n, ok := s.inner.(optim.CheckpointNamer); ok {
		return n.CheckpointName()
	}
	return s.inner.Name()
}

// CaptureGlobals implements optim.StateSaver.
func (s *Sharded) CaptureGlobals() ([]uint64, error) { return s.inner.CaptureGlobals() }

// CaptureParam implements optim.StateSaver: gather the parameter's state
// from its row segments into the canonical full-row layout.
func (s *Sharded) CaptureParam(p *nn.Param) (*optim.ParamState, error) {
	if !s.ready {
		return nil, fmt.Errorf("zero: CaptureParam before Init")
	}
	idx, ok := s.paramIndex[p]
	if !ok {
		return nil, fmt.Errorf("zero: CaptureParam for unknown parameter %s", p.Name)
	}
	units := s.unitsByParam[idx]
	if len(units) == 1 {
		return s.inner.CaptureParam(p) // a sole unit is whole: its view is p
	}

	parts := make([]*optim.ParamState, 0, len(units))
	segs := make([][2]int, 0, len(units))
	for _, u := range units {
		part, err := s.inner.CaptureParam(s.views[u])
		if err != nil {
			return nil, err
		}
		if part == nil {
			continue
		}
		parts = append(parts, part)
		segs = append(segs, [2]int{s.segs[u].Row0, s.segs[u].Row1})
	}
	if len(parts) == 0 {
		return nil, nil
	}
	if len(parts) < len(units) {
		return nil, fmt.Errorf("zero: parameter %s has state on only %d of %d segments", p.Name, len(parts), len(units))
	}
	merged, err := optim.MergeRowStates(p.W.Rows, parts, segs)
	if err != nil {
		return nil, fmt.Errorf("zero: gather %s: %w", p.Name, err)
	}
	return merged, nil
}

// RestoreGlobals implements optim.StateLoader.
func (s *Sharded) RestoreGlobals(gs []uint64) error { return s.inner.RestoreGlobals(gs) }

// RestoreParam implements optim.StateLoader: scatter the canonical state
// across the current partition, slicing row-aligned matrices per segment.
// The partition restored into need not match the one that saved — this is
// the elastic-resharding entry point.
func (s *Sharded) RestoreParam(p *nn.Param, st *optim.ParamState) error {
	if !s.ready {
		return fmt.Errorf("zero: RestoreParam before Init")
	}
	idx, ok := s.paramIndex[p]
	if !ok {
		return fmt.Errorf("zero: RestoreParam for unknown parameter %s", p.Name)
	}
	units := s.unitsByParam[idx]
	if len(units) == 1 {
		return s.inner.RestoreParam(p, st)
	}
	for _, u := range units {
		seg := s.segs[u]
		sub, err := st.SliceRows(seg.Row0, seg.Row1)
		if err != nil {
			return fmt.Errorf("zero: scatter %s: %w", p.Name, err)
		}
		if err := s.inner.RestoreParam(s.views[u], sub); err != nil {
			return err
		}
	}
	return nil
}
