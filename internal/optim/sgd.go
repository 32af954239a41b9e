package optim

import (
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// SGD is plain stochastic gradient descent with optional heavyweight
// momentum and decoupled weight decay. It is the paper's memory floor
// (momentum 0 keeps zero optimizer state) and the baseline known to fail
// on transformer pre-training (Zhang et al., 2024a), which Table 2 and
// Table 10 rely on.
type SGD struct {
	Base
	momentum float64
}

// NewSGD builds the optimizer; momentum 0 disables velocity state entirely.
// Layout: RowMats [velocity], and only with momentum; the update is
// element-wise either way.
func NewSGD(h Hyper, momentum float64) *SGD {
	sc := Schema{Name: "SGD", RowSplittable: func(*nn.Param) bool { return true }}
	if momentum > 0 {
		sc.Name = "SGD-M"
		sc.Slots = []Slot{{Name: "velocity", Kind: RowAligned}}
	}
	return &SGD{Base: NewBase(sc, h, nil), momentum: momentum}
}

// Step implements Optimizer.
func (s *SGD) Step(ps []*nn.Param) { s.Walk(ps, s.update) }

// update steps one parameter; st is nil without momentum (the schema then
// declares no state).
func (s *SGD) update(p *nn.Param, st *Entry, _ bool, _ *Workspace) {
	dir := p.Grad
	if st != nil {
		dir = st.M[0]
		tensor.ScaleInPlace(dir, float32(s.momentum))
		tensor.AddInPlace(dir, p.Grad)
	}
	DecayAndApply(p, dir, s.h.LR, s.h.WeightDecay)
}
