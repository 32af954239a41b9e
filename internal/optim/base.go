// The base every member of the zoo embeds. A member declares what it keeps
// for a parameter (its Schema) and what it does with it (a per-parameter
// update); everything between the two is here, once: the name, the learning
// rate and its forwarding, the table the schema is declared on, the optimizer
// that steps what the schema does not cover — and the one walk over the
// parameter list. A member draws no randomness from a shared stream: what it
// needs is keyed by its seed and the parameter's name (tensor.Mix), so
// stepping a list in any grouping and any order is stepping it whole.
package optim

import (
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// Fallback is an optimizer that can step what another member's schema does
// not cover. Any member of the zoo is one: its table comes with it, so the
// fallback table and the fallback optimizer cannot be wired apart.
type Fallback interface {
	Optimizer
	table() *StateTable
}

func (t *StateTable) table() *StateTable { return t }

// touched is one covered parameter of a walk: its entry (nil when the schema
// declares no state) and whether this walk allocated it, so the member can
// seed what does not start at zero.
type touched struct {
	p     *nn.Param
	st    *Entry
	fresh bool
}

// Base implements Optimizer except for Step, which a member writes as Walk
// plus its update.
type Base struct {
	*StateTable
	h     Hyper
	dense Fallback // steps what the schema does not cover (nil: it covers everything)

	// Per-step scratch, kept across steps; none of it is optimizer state.
	touched  []touched     // this step's covered parameters, in list order
	fallback []*nn.Param   // this step's uncovered parameters, in list order
	dir      scratchMatrix // the normalized direction of the parameter being stepped
}

// NewBase builds the base of a member declared by sc; dense steps the
// parameters sc does not cover (nil when it covers them all).
func NewBase(sc Schema, h Hyper, dense Fallback) Base {
	t := &StateTable{schema: sc, entries: map[*nn.Param]*Entry{}}
	if dense != nil {
		t.fallback = dense.table()
	}
	return Base{StateTable: t, h: h.withDefaults(), dense: dense}
}

// Name implements Optimizer: the schema's.
func (b *Base) Name() string { return b.schema.Name }

// LR implements Optimizer.
func (b *Base) LR() float64 { return b.h.LR }

// SetLR implements Optimizer.
func (b *Base) SetLR(lr float64) {
	b.h.LR = lr
	if b.dense != nil {
		b.dense.SetLR(lr)
	}
}

// Hyper returns the hyperparameters at the current learning rate.
func (b *Base) Hyper() Hyper { return b.h }

// Direction returns the scratch a dense update writes p's direction into:
// one grow-only buffer shaped like p, holding whatever the previous parameter
// left — every user overwrites it in full.
func (b *Base) Direction(p *nn.Param) *tensor.Matrix { return b.dir.shaped(p.W.Rows, p.W.Cols) }

// touch is the serial half of the walk: parameters in list order, split by
// the schema's Covers — the only copy of the predicate — with the entry of
// each covered one allocated at first touch. A schema that declares no
// scalar, slot or projector allocates nothing (momentum-free SGD keeps no
// entry, so its checkpoint carries none). The uncovered rest waits for
// stepRest. Both lists are valid until the next touch.
func (b *Base) touch(ps []*nn.Param) []touched {
	b.touched, b.fallback = b.touched[:0], b.fallback[:0]
	sc := &b.schema
	stateful := len(sc.Scalars)+len(sc.Slots) > 0 || sc.Proj != nil
	for _, p := range ps {
		if !sc.covers(p) {
			b.fallback = append(b.fallback, p)
			continue
		}
		t := touched{p: p}
		if stateful {
			t.st, t.fresh = b.State(p)
		}
		b.touched = append(b.touched, t)
	}
	return b.touched
}

// stepRest hands the parameters the last touch left uncovered to the
// fallback optimizer, in list order.
func (b *Base) stepRest() {
	if len(b.fallback) > 0 {
		b.dense.Step(b.fallback)
	}
}

// Walk is a member's Step: touch, then update for each covered parameter in
// list order, then the uncovered rest through the fallback. Every update
// reads and writes only its own parameter and entry, so stepping a list in
// pieces, in any order, is stepping it whole.
func (b *Base) Walk(ps []*nn.Param, update func(p *nn.Param, st *Entry, fresh bool)) {
	for _, t := range b.touch(ps) {
		update(t.p, t.st, t.fresh)
	}
	b.stepRest()
}
