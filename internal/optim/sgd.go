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
	*StateTable
	h        Hyper
	momentum float64
}

// NewSGD builds the optimizer; momentum 0 disables velocity state entirely.
// Layout: RowMats [velocity], and only with momentum; the update is
// element-wise either way.
func NewSGD(h Hyper, momentum float64) *SGD {
	s := &SGD{h: h.withDefaults(), momentum: momentum}
	sc := Schema{Name: s.Name(), RowSplittable: func(*nn.Param) bool { return true }}
	if momentum > 0 {
		sc.Slots = []Slot{{Name: "velocity", Kind: RowAligned}}
	}
	s.StateTable = NewStateTable(sc, nil, nil)
	return s
}

// Name implements Optimizer.
func (s *SGD) Name() string {
	if s.momentum > 0 {
		return "SGD-M"
	}
	return "SGD"
}

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.h.LR = lr }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.h.LR }

// Step implements Optimizer.
func (s *SGD) Step(ps []*nn.Param) {
	for _, p := range ps {
		dir := p.Grad
		if s.momentum > 0 {
			st, _ := s.State(p)
			dir = st.M[0]
			tensor.ScaleInPlace(dir, float32(s.momentum))
			tensor.AddInPlace(dir, p.Grad)
		}
		DecayAndApply(p, dir, s.h.LR, s.h.WeightDecay)
	}
}
