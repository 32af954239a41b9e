package optim

import "apollo/internal/nn"

type WeightQuantized struct {
	inner Optimizer
}

func (w *WeightQuantized) Step(ps []*nn.Param) { w.inner.Step(ps) }

func (w *WeightQuantized) SetLR(lr float64) { w.inner.SetLR(lr) }
