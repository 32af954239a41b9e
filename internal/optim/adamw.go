package optim

import "apollo/internal/nn"

// AdamW is the standard decoupled-weight-decay Adam optimizer (Loshchilov &
// Hutter, 2019) — the paper's main baseline. It keeps full-rank first and
// second moments: 2·mn state per m×n parameter, the memory cost APOLLO
// eliminates.
type AdamW struct{ Base }

// Slot and scalar indices of the AdamW declaration, shared by every schema
// that opens with AdamW moments (Projected, Adam8bit).
const (
	adamT = 0 // scalar: step count
	adamM = 0 // slot: first moment
	adamV = 1 // slot: second moment
)

// NewAdamW constructs the optimizer. Layout: Scalars [t]; RowMats [m, v]; the
// update is element-wise.
func NewAdamW(h Hyper) *AdamW {
	sc := Schema{
		Name:          "AdamW",
		Scalars:       []Scalar{{Name: "t"}},
		Slots:         []Slot{{Name: "m", Kind: RowAligned}, {Name: "v", Kind: RowAligned}},
		RowSplittable: func(*nn.Param) bool { return true },
	}
	return &AdamW{NewBase(sc, h, nil)}
}

// Step implements Optimizer.
func (a *AdamW) Step(ps []*nn.Param) { a.Walk(ps, a.update) }

func (a *AdamW) update(p *nn.Param, st *Entry, _ bool, ws *Workspace) {
	dir := ws.Direction(p)
	st.Adam(adamT, adamM, adamV, dir, p.Grad, a.h)
	DecayAndApply(p, dir, a.h.LR, a.h.WeightDecay)
}
