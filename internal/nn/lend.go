package nn

import "apollo/internal/tensor"

// ringSlabs is the number of slabs BackwardLend lends gradients from: one
// for the group the pass is writing, one for the group being stepped beside
// it. With one, every group would wait for the previous group's step.
const ringSlabs = 2

// gradRing is a Model's lent gradient storage: ringSlabs slabs, each the
// size of the model's largest group, made by the first lent pass.
type gradRing struct {
	free chan []float32 // the slabs not lent
	// abandoned is set by AbandonLending; the next pass reads it after the
	// stepping side that set it has been joined.
	abandoned bool
}

// BackwardLend is BackwardRelease over lent gradients: a group's gradients
// are not resident. Just before the pass first writes a group, it points the
// group's Param.Grad headers into a zeroed slab borrowed from the model's
// ring; release then receives the group as in BackwardRelease, and whoever
// steps it hands it to GiveBack once the step returns. The ring holds two
// slabs, each the size of the largest group, so at most two groups'
// gradients are live at once; with both lent, the pass waits for one to come
// back. The pass does not accumulate: it drops every resident gradient first
// (ParamSet.ZeroGrad makes them resident again).
func (m *Model) BackwardLend(dlogits *tensor.Matrix, release func([]*Param)) {
	if r := &m.ring; r.abandoned || len(r.free) < ringSlabs {
		// First use, or a pass that ended in a panic kept slabs lent.
		r.free, r.abandoned = make(chan []float32, ringSlabs), false
		for range ringSlabs {
			r.free <- make([]float32, m.largest)
		}
	}
	for _, p := range m.params.list {
		p.Grad.Data = nil
	}
	m.backward(dlogits, release, true)
}

// borrow points g's gradients into a free slab, waiting while none is, and
// zeroes them. The zeroing is the pass's, not the giver's: the stepping
// side, not backward, is what bounds a step whose groups step slower than
// they backpropagate.
func (m *Model) borrow(g []*Param) {
	slab, ok := <-m.ring.free
	if !ok {
		panic("nn: lent pass abandoned: its gradient slabs will not come back")
	}
	for _, p := range g {
		n := p.NumEl()
		p.Grad.Data, slab = slab[:n], slab[n:]
		clear(p.Grad.Data)
	}
}

// GiveBack returns the slab a group BackwardLend released was lent and leaves
// the group's gradients without storage. Call it once per released group,
// after the group's step has returned, from any one goroutine.
func (m *Model) GiveBack(g []*Param) {
	// The group's first gradient starts the slab, and a sub-slice keeps the
	// capacity to its end.
	slab := g[0].Grad.Data[:cap(g[0].Grad.Data)]
	for _, p := range g {
		p.Grad.Data = nil
	}
	m.ring.free <- slab
}

// AbandonLending tells the running lent pass that the slabs still lent will
// not come back: a borrow waiting for one, or any later in the pass, panics
// instead of waiting forever. The stepping side calls it when it stops giving
// back before the pass ends — a Step that panicked. The next BackwardLend
// starts from a fresh ring.
func (m *Model) AbandonLending() {
	if r := &m.ring; !r.abandoned {
		r.abandoned = true
		close(r.free)
	}
}

// GradBytes returns the gradient storage the model holds: its resident
// gradients, plus the ring's slabs once a lent pass has made them. Call it
// between passes.
func (m *Model) GradBytes() int64 {
	var n int64
	for _, p := range m.params.list {
		if p.Grad != nil {
			n += 4 * int64(len(p.Grad.Data))
		}
	}
	if m.ring.free != nil {
		n += 4 * ringSlabs * int64(m.largest)
	}
	return n
}
