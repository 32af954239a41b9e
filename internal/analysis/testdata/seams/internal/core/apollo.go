package core

import (
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

type APOLLO struct {
	engine *optim.Projected
}

func (a *APOLLO) Step(ps []*nn.Param) { a.engine.Step(ps) }

func (a *APOLLO) SetLR(lr float64) {} // want `declared SetLR: SetLR outside optim.Base and WeightQuantized`

func (a *APOLLO) draw() uint64 {
	return tensor.NewRNG(1).Uint64() // want `tensor.RNG.Uint64: stream draw in optim/core`
}
