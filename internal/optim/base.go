// The base every member of the zoo embeds. A member declares what it keeps
// for a parameter (its Schema) and what it does with it (a per-parameter
// update); everything between the two is here, once: the name, the learning
// rate and its forwarding, the table the schema is declared on, the optimizer
// that steps what the schema does not cover — and the one walk over the
// parameter list, which steps the covered parameters concurrently on the
// shared pool. A member draws no randomness from a shared stream: what it
// needs is keyed by its seed and the parameter's name (tensor.Mix), so
// stepping a list in any grouping, any order and at any pool width is
// stepping it whole.
package optim

import (
	"sync/atomic"

	"apollo/internal/nn"
	"apollo/internal/runtime"
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

// walkGrain is the least number of covered elements a walk fans out over.
// Below it the fan-out costs more than it saves — a transformer block's two
// norm vectors are the common case — and the walk steps them inline.
const walkGrain = 1 << 12

// Base implements Optimizer except for Step, which a member writes as Walk
// plus its update.
type Base struct {
	*StateTable
	h     Hyper
	dense Fallback // steps what the schema does not cover (nil: it covers everything)

	// Per-step scratch, kept across steps; none of it is optimizer state.
	touched  []touched                                               // this step's covered parameters, in list order
	fallback []*nn.Param                                             // this step's uncovered parameters, in list order
	ws       []*Workspace                                            // one per participant of the walk's fan-out
	step     func(p *nn.Param, st *Entry, fresh bool, ws *Workspace) // this walk's update
	next     atomic.Int64                                            // the next unclaimed index into touched
	claim    func(w0, w1 int)                                        // a participant's claim loop
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

// touch is the serial half of the walk: parameters in list order, split by
// the schema's Covers — the only copy of the predicate — with the entry of
// each covered one allocated at first touch. A schema that declares no
// scalar, slot or projector allocates nothing (momentum-free SGD keeps no
// entry, so its checkpoint carries none). The uncovered rest waits for the
// fallback. It returns the number of covered elements.
func (b *Base) touch(ps []*nn.Param) int {
	b.touched, b.fallback = b.touched[:0], b.fallback[:0]
	sc := &b.schema
	stateful := len(sc.Scalars)+len(sc.Slots) > 0 || sc.Proj != nil
	elems := 0
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
		elems += len(p.W.Data)
	}
	return elems
}

// Walk is a member's Step. After touch, the covered parameters are stepped
// concurrently on the shared pool, each participant claiming the next
// unclaimed one and handing update its entry, whether this walk allocated it,
// and the participant's own Workspace. Every update reads and writes only its
// own parameter and entry, so the result is bit-identical at any pool width,
// and stepping a list in pieces, in any order, is stepping it whole. After
// the join, serially, every Workspace is grown to the largest size any of
// them needed for each buffer — which participant claimed which parameter was
// the scheduler's choice, and the walk cannot tell before an update runs
// which buffers it uses (sizing them all would give APOLLO m×n buffers it
// never touches). Then the uncovered rest goes to the fallback, in list order.
func (b *Base) Walk(ps []*nn.Param, update func(p *nn.Param, st *Entry, fresh bool, ws *Workspace)) {
	workers := 1
	if b.touch(ps) >= walkGrain {
		workers = min(runtime.Workers(), len(b.touched))
	}
	for len(b.ws) < workers {
		b.ws = append(b.ws, &Workspace{})
	}
	if b.claim == nil { // built once, so a walk allocates no closure
		b.claim = func(w0, w1 int) {
			for w := w0; w < w1; w++ {
				for i := int(b.next.Add(1)) - 1; i < len(b.touched); i = int(b.next.Add(1)) - 1 {
					t := b.touched[i]
					b.step(t.p, t.st, t.fresh, b.ws[w])
				}
			}
		}
	}
	b.step = update
	b.next.Store(0)
	runtime.ForRange(workers, 1, b.claim)
	growAlike(b.ws)

	if len(b.fallback) > 0 {
		b.dense.Step(b.fallback)
	}
}
