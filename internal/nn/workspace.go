package nn

import "apollo/internal/tensor"

// workspace is a Model's activation arena. A pass over a model asks for the
// same buffers in the same order every time, so the arena keeps one buffer
// per position in that order and hands it out again: the i-th request since
// reset gets the i-th buffer, grown if this request is larger than any the
// position has served. Model.Forward resets it, so everything a forward and
// its backward hand out is valid until the next Forward on the same model;
// backward temporaries are returned early with mark/release, and their
// positions serve the next layer's. The arena reaches its high-water mark
// during the first pass over a batch shape and holds exactly what that pass
// used, and a model repeating the shape allocates nothing from then on.
//
// Handed-out memory is NOT cleared: a caller that accumulates into a buffer
// zeroes it, a caller that overwrites every element does not pay for that.
//
// A nil *workspace allocates everything from the heap (zeroed), which is how
// a layer built on its own, outside a Model, runs. Not safe for concurrent
// use: layers take what they need before they fan out.
type workspace struct {
	slots []*tensor.Matrix // slots[i] serves the i-th request since reset
	next  int              // requests since reset
	tmp   tensor.Matrix    // scratch's one matrix
}

// reset makes the whole arena available again.
func (w *workspace) reset() { w.next = 0 }

// mark returns the position to release back to.
func (w *workspace) mark() int {
	if w == nil {
		return 0
	}
	return w.next
}

// release returns everything handed out since mark was taken.
func (w *workspace) release(mark int) {
	if w != nil {
		w.next = mark
	}
}

// matrix hands out an uncleared rows×cols matrix.
func (w *workspace) matrix(rows, cols int) *tensor.Matrix {
	if w == nil {
		return tensor.NewMatrix(rows, cols)
	}
	if w.next == len(w.slots) {
		w.slots = append(w.slots, new(tensor.Matrix))
	}
	w.next++
	return fit(w.slots[w.next-1], rows, cols)
}

// floats hands out n uncleared floats.
func (w *workspace) floats(n int) []float32 { return w.matrix(1, n).Data }

// scratch hands out the arena's one transient matrix, uncleared and valid
// until the next call: weight-shaped temporaries (a Linear's dW before it is
// added to the gradient) would otherwise each grow the buffer at whatever
// position the backward pass had reached to weight size. Where a batch has
// fewer rows than a weight has, that is most of the arena: 1.16 MB with
// scratch against 1.77 MB with mark/matrix/release around dW on a 1×16-token
// step of the 128×344 model (equal within 1% at 512 rows).
func (w *workspace) scratch(rows, cols int) *tensor.Matrix {
	if w == nil {
		return tensor.NewMatrix(rows, cols)
	}
	return fit(&w.tmp, rows, cols)
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
