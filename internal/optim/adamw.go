package optim

import (
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// AdamW is the standard decoupled-weight-decay Adam optimizer (Loshchilov &
// Hutter, 2019) — the paper's main baseline. It keeps full-rank first and
// second moments: 2·mn state per m×n parameter, the memory cost APOLLO
// eliminates.
type AdamW struct {
	h     Hyper
	state map[*nn.Param]*adamState
	buf   map[*nn.Param]*tensor.Matrix
}

// NewAdamW constructs the optimizer.
func NewAdamW(h Hyper) *AdamW {
	return &AdamW{h: h.withDefaults(), state: map[*nn.Param]*adamState{}, buf: map[*nn.Param]*tensor.Matrix{}}
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
		st, ok := a.state[p]
		if !ok {
			st = newAdamState(p.W.Rows, p.W.Cols)
			a.state[p] = st
			a.buf[p] = tensor.NewMatrix(p.W.Rows, p.W.Cols)
		}
		dir := a.buf[p]
		st.update(dir, p.Grad, a.h)
		DecayAndApply(p, dir, a.h.LR, a.h.WeightDecay)
	}
}

// StateBytes implements Optimizer. Scratch buffers are excluded: they are
// transient per-step storage, matching how the paper counts optimizer states.
func (a *AdamW) StateBytes() int64 {
	var total int64
	for _, st := range a.state { //apollo:orderfree exact integer sum; iteration order cannot reach the result
		total += st.bytes()
	}
	return total
}
