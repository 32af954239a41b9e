package optim

import (
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// SGD is plain stochastic gradient descent with optional heavyweight
// momentum and decoupled weight decay. It is the paper's memory floor
// (Momentum = 0 keeps zero optimizer state) and the baseline known to fail
// on transformer pre-training (Zhang et al., 2024a), which Table 2 and
// Table 10 rely on.
type SGD struct {
	h        Hyper
	Momentum float64

	vel map[*nn.Param]*tensor.Matrix
}

// NewSGD builds the optimizer; momentum 0 disables velocity state entirely.
func NewSGD(h Hyper, momentum float64) *SGD {
	return &SGD{h: h.withDefaults(), Momentum: momentum, vel: map[*nn.Param]*tensor.Matrix{}}
}

// Name implements Optimizer.
func (s *SGD) Name() string {
	if s.Momentum > 0 {
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
		if s.Momentum > 0 {
			v, ok := s.vel[p]
			if !ok {
				v = tensor.NewMatrix(p.W.Rows, p.W.Cols)
				s.vel[p] = v
			}
			tensor.ScaleInPlace(v, float32(s.Momentum))
			tensor.AddInPlace(v, p.Grad)
			dir = v
		}
		DecayAndApply(p, dir, s.h.LR, s.h.WeightDecay)
	}
}

// StateBytes implements Optimizer.
func (s *SGD) StateBytes() int64 {
	var total int64
	for _, v := range s.vel { //apollo:orderfree exact integer sum; iteration order cannot reach the result
		total += 4 * int64(v.NumEl())
	}
	return total
}
