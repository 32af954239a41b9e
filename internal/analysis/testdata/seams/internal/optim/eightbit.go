package optim

import "apollo/internal/nn"

type Projected struct {
	Base
}

func (e *Projected) Step(ps []*nn.Param) { e.Walk(ps, func(*nn.Param) {}) }

// GaLore8bit names the projected engine with INT8 moments: an alias
// declares no optimizer of its own.
type GaLore8bit = Projected
