package nn

import "apollo/internal/tensor"

// workspace is a Model's activation arena. A pass over a model asks for the
// same buffers in the same order every time, so the arena keeps one buffer
// per position in that order and hands it out again: the i-th request since
// reset gets the i-th buffer, grown if this request is larger than any the
// position has served. Model.Forward resets it.
//
// The positions form two lists. keep serves what a forward keeps for its
// backward: those buffers live until the next reset. matrix serves
// transients, under mark/release: a forward's temporaries (the norm outputs,
// SwiGLU's gated product and attention's probability rows, which backward
// rebuilds from what is kept) and every backward temporary. A released
// transient position serves the next transient and nothing else, so no kept
// buffer sits at the largest size its position once served to a temporary;
// and backward takes its buffers in an order that makes each at least as
// wide as the forward temporary at its position, so a forward grows no
// transient position past what backward needs. The arena reaches its
// high-water mark during the first pass over a batch shape and holds exactly
// what that pass used, and a model repeating the shape allocates nothing
// from then on.
//
// Handed-out memory is NOT cleared: a caller that accumulates into a buffer
// zeroes it, a caller that overwrites every element does not pay for that.
//
// A nil *workspace allocates everything from the heap (zeroed), which is how
// a layer built on its own, outside a Model, runs. Not safe for concurrent
// use: layers take what they need before they fan out.
type workspace struct {
	kept  positions     // what a forward keeps for its backward
	trans positions     // forward temporaries and backward temporaries
	tmp   tensor.Matrix // scratch's one matrix
}

// positions is one list of buffers handed out by position since reset.
type positions struct {
	slots []*tensor.Matrix // slots[i] serves the i-th request since reset
	next  int              // requests since reset
}

// take hands out the next position's buffer as an uncleared rows×cols
// matrix.
func (p *positions) take(rows, cols int) *tensor.Matrix {
	if p.next == len(p.slots) {
		p.slots = append(p.slots, new(tensor.Matrix))
	}
	p.next++
	return fit(p.slots[p.next-1], rows, cols)
}

// reset makes the whole arena available again.
func (w *workspace) reset() { w.kept.next, w.trans.next = 0, 0 }

// mark returns the transient position to release back to.
func (w *workspace) mark() int {
	if w == nil {
		return 0
	}
	return w.trans.next
}

// release returns every transient handed out since mark was taken.
func (w *workspace) release(mark int) {
	if w != nil {
		w.trans.next = mark
	}
}

// keep hands out an uncleared rows×cols matrix that stays valid until the
// next reset.
func (w *workspace) keep(rows, cols int) *tensor.Matrix {
	if w == nil {
		return tensor.NewMatrix(rows, cols)
	}
	return w.kept.take(rows, cols)
}

// keepFloats hands out n uncleared floats that stay valid until the next
// reset.
func (w *workspace) keepFloats(n int) []float32 { return w.keep(1, n).Data }

// matrix hands out an uncleared rows×cols transient, valid until the
// release of a mark taken before it.
func (w *workspace) matrix(rows, cols int) *tensor.Matrix {
	if w == nil {
		return tensor.NewMatrix(rows, cols)
	}
	return w.trans.take(rows, cols)
}

// scratch hands out the arena's one transient matrix, uncleared and valid
// until the next call: weight-shaped temporaries (a Linear's dW before it is
// added to the gradient, and the transposed operand its Forward's MatMulT
// sweeps) would otherwise each grow the buffer at whatever position the
// pass had reached to weight size. Where a batch has
// fewer rows than a weight has, that is most of the arena: 1.16 MB with
// scratch against 1.77 MB with mark/matrix/release around dW on a 1×16-token
// step of the 128×344 model (equal within 1% at 512 rows).
func (w *workspace) scratch(rows, cols int) *tensor.Matrix {
	if w == nil {
		return tensor.NewMatrix(rows, cols)
	}
	return fit(&w.tmp, rows, cols)
}

// bytes is the storage the arena holds: every position of both lists at
// the largest size it has served, and scratch.
func (w *workspace) bytes() int64 {
	n := cap(w.tmp.Data)
	for _, p := range []*positions{&w.kept, &w.trans} {
		for _, m := range p.slots {
			n += cap(m.Data)
		}
	}
	return 4 * int64(n)
}

// fit reshapes m to rows×cols over its own storage, replacing the storage
// only when it is too small.
func fit(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if n := rows * cols; cap(m.Data) < n {
		m.Data = make([]float32, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
	return m
}
