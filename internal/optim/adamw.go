package optim

import "apollo/internal/nn"

// AdamW is the standard decoupled-weight-decay Adam optimizer (Loshchilov &
// Hutter, 2019) — the paper's main baseline. It keeps full-rank first and
// second moments: 2·mn state per m×n parameter, the memory cost APOLLO
// eliminates.
type AdamW struct {
	*StateTable
	h   Hyper
	dir scratchMatrix // the normalized direction of the parameter being stepped
}

// Slot and scalar indices of the AdamW declaration, shared by every schema
// that opens with AdamW moments (Projected, Adam8bit, GaLore8bit).
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
	return &AdamW{StateTable: NewStateTable(sc, nil, nil), h: h.withDefaults()}
}

// Name implements Optimizer.
func (a *AdamW) Name() string { return "AdamW" }

// SetLR implements Optimizer.
func (a *AdamW) SetLR(lr float64) { a.h.LR = lr }

// LR implements Optimizer.
func (a *AdamW) LR() float64 { return a.h.LR }

// Step implements Optimizer.
func (a *AdamW) Step(ps []*nn.Param) {
	for _, p := range ps {
		st, _ := a.State(p)
		dir := a.dir.shaped(p.W.Rows, p.W.Cols)
		st.Adam(adamT, adamM, adamV, dir, p.Grad, a.h)
		DecayAndApply(p, dir, a.h.LR, a.h.WeightDecay)
	}
}
