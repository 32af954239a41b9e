package optim

import (
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// Workspace is the scratch one participant of a walk (Base.Walk) hands to
// the update of whichever parameter it is stepping: grow-only buffers
// reshaped per parameter, so a steady-state step allocates nothing
// proportional to a matrix. It is scratch, not optimizer state — nothing in
// it outlives an update, and it appears in no StateBytes, StateBytesFor or
// checkpoint. Contents are whatever the previous parameter left behind; every
// user overwrites what it takes in full.
type Workspace struct {
	dir      scratchMatrix    // a dense update's direction, shaped like the parameter
	gradT    scratchMatrix    // the gradient in m×n orientation, for rows > cols
	r, rt    scratchMatrix    // R and R̃, r×n
	dense    [2]scratchMatrix // m×n buffers of the lifting rules
	num, den []float64        // per-channel norms
	factors  []float32        // per-channel scaling factors
}

// scratchMatrix is a matrix header over a grow-only backing slice.
type scratchMatrix struct{ m tensor.Matrix }

func (s *scratchMatrix) shaped(rows, cols int) *tensor.Matrix {
	n := rows * cols
	if cap(s.m.Data) < n {
		s.m.Data = make([]float32, n)
	}
	s.m.Rows, s.m.Cols, s.m.Data = rows, cols, s.m.Data[:n]
	return &s.m
}

// matrices returns the workspace's matrix buffers in a fixed order.
func (w *Workspace) matrices() [6]*scratchMatrix {
	return [6]*scratchMatrix{&w.dir, &w.gradT, &w.r, &w.rt, &w.dense[0], &w.dense[1]}
}

// growAlike grows every buffer of every workspace to the largest capacity the
// same buffer has in any of them — the largest shape any update asked of
// it — so a workspace serves whichever parameter its participant claims next
// without allocating.
func growAlike(ws []*Workspace) {
	var peak [6]int
	channels := 0
	for _, w := range ws {
		for i, s := range w.matrices() {
			peak[i] = max(peak[i], cap(s.m.Data))
		}
		channels = max(channels, cap(w.num))
	}
	for _, w := range ws {
		for i, s := range w.matrices() {
			if cap(s.m.Data) < peak[i] {
				s.m.Data = make([]float32, peak[i])
			}
		}
		if cap(w.num) < channels {
			w.num, w.den, w.factors = make([]float64, channels), make([]float64, channels), make([]float32, channels)
		}
	}
}

// Direction returns the buffer a dense update writes p's direction into,
// shaped like p.
func (w *Workspace) Direction(p *nn.Param) *tensor.Matrix { return w.dir.shaped(p.W.Rows, p.W.Cols) }

// RankSpace returns the two rank×n buffers a rule projects into: R = P·G and
// the normalized R̃.
func (w *Workspace) RankSpace(rank, n int) (r, rTilde *tensor.Matrix) {
	return w.r.shaped(rank, n), w.rt.shaped(rank, n)
}

// Channels returns per-channel scratch for n channels: two float64 norm
// slices and the float32 factors handed to ApplyScaledGrad.
func (w *Workspace) Channels(n int) (num, den []float64, factors []float32) {
	if cap(w.num) < n {
		w.num, w.den, w.factors = make([]float64, n), make([]float64, n), make([]float32, n)
	}
	return w.num[:n], w.den[:n], w.factors[:n]
}

// orientedGrad returns p's gradient in m×n orientation: the gradient itself,
// or its transpose in scratch when the parameter is stored n×m.
func (w *Workspace) orientedGrad(g *tensor.Matrix, o orientation) *tensor.Matrix {
	if !o.transposed {
		return g
	}
	t := w.gradT.shaped(g.Cols, g.Rows)
	tensor.TransposeInto(t, g)
	return t
}

// lift turns the m×n-oriented update, which sits in w.dense[0], into the
// direction in p's native orientation, scaled by α.
func (w *Workspace) lift(p *nn.Param, update *tensor.Matrix, scale float64) *tensor.Matrix {
	dir := update
	if orient(p.W.Rows, p.W.Cols).transposed {
		dir = w.dense[1].shaped(update.Cols, update.Rows)
		tensor.TransposeInto(dir, update)
	}
	tensor.ScaleInPlace(dir, float32(scale))
	return dir
}
