package nn

import "apollo/internal/tensor"

// GradPolicy is how a model's gradient arena, which owns every gradient byte
// of the model's parameters, stores them. Model.SetGradPolicy changes it.
type GradPolicy int

const (
	// ResidentGrads, a new model's policy, keeps every gradient across
	// passes, which accumulate into it.
	ResidentGrads GradPolicy = iota
	// LentGrads lends each group's gradients a zeroed slab from a ring of
	// two, each the size of the largest group, from just before the pass
	// first writes the group until whoever steps it calls GiveBack. With both
	// slabs out, the pass waits.
	LentGrads
	// NoGrads holds nothing and leaves every Param.Grad nil, for a model that
	// only runs forward passes. A backward pass panics.
	NoGrads
)

// ringSlabs is LentGrads' slab count. With one, every group would wait for
// the previous group's step.
const ringSlabs = 2

// gradArena is a Model's policy and, under LentGrads, its ring.
type gradArena struct {
	policy    GradPolicy
	largest   int            // elements of the largest group: one ring slab
	free      chan []float32 // LentGrads: the slabs not lent; nil until a pass makes them
	abandoned bool           // by AbandonLending; read by the next pass, after the join
}

// open readies the arena for a pass: under LentGrads the first pass makes
// the ring, as does a pass after one that ended with slabs still lent.
func (a *gradArena) open() {
	if a.policy == NoGrads {
		panic("nn: backward pass on a model whose policy is NoGrads")
	}
	if a.policy == LentGrads && (a.abandoned || len(a.free) < ringSlabs) {
		a.free, a.abandoned = make(chan []float32, ringSlabs), false
		for range ringSlabs {
			a.free <- make([]float32, a.largest)
		}
	}
}

// borrow lends g's gradients a zeroed slab under LentGrads. The zeroing is
// the pass's, not the giver's: the stepping side bounds a step whose groups
// step slower than they backpropagate.
func (a *gradArena) borrow(g []*Param) {
	if a.policy != LentGrads {
		return
	}
	slab, ok := <-a.free
	if !ok {
		panic("nn: lent pass abandoned: its gradient slabs will not come back")
	}
	for _, p := range g {
		n := p.NumEl()
		p.Grad.Data, slab = slab[:n], slab[n:]
		clear(p.Grad.Data)
	}
}

// SetGradPolicy makes p the model's gradient policy, between passes, and
// returns the one it replaces. A change drops the old policy's storage and
// makes ResidentGrads' zeroed gradients at once, LentGrads' on the next pass.
func (m *Model) SetGradPolicy(p GradPolicy) GradPolicy {
	prev := m.grads.policy
	if p != prev {
		m.grads = gradArena{policy: p, largest: m.grads.largest}
		for _, q := range m.params.list {
			switch {
			case p == NoGrads:
				q.Grad = nil
			case p == ResidentGrads:
				q.Grad = tensor.NewMatrix(q.W.Rows, q.W.Cols)
			case q.Grad == nil:
				q.Grad = &tensor.Matrix{Rows: q.W.Rows, Cols: q.W.Cols}
			default:
				q.Grad.Data = nil
			}
		}
	}
	return prev
}

// GiveBack returns the slab a released group was lent under LentGrads, once
// the group's step has returned, and leaves the group's gradients without
// storage. Call it once per released group, from any one goroutine.
func (m *Model) GiveBack(g []*Param) {
	if m.grads.policy != LentGrads {
		return
	}
	// The group's first gradient starts the slab, and a sub-slice keeps the
	// capacity to its end.
	slab := g[0].Grad.Data[:cap(g[0].Grad.Data)]
	for _, p := range g {
		p.Grad.Data = nil
	}
	m.grads.free <- slab
}

// AbandonLending tells the running lent pass that the slabs still lent will
// not come back — a Step panicked — so a borrow waiting for one, or any later
// in the pass, panics instead of waiting forever. The next pass starts from a
// fresh ring.
func (m *Model) AbandonLending() {
	if a := &m.grads; a.policy == LentGrads && !a.abandoned {
		a.abandoned = true
		close(a.free)
	}
}

// GradBytes returns the gradient storage the model's arena holds: every
// gradient under ResidentGrads, else the ring's slabs once a pass made them.
func (m *Model) GradBytes() int64 {
	if m.grads.policy == ResidentGrads {
		return 4 * int64(m.params.NumParams())
	}
	return 4 * int64(cap(m.grads.free)*m.grads.largest)
}
