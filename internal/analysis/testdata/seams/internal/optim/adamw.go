package optim

import (
	"apollo/internal/nn"
	"apollo/internal/runtime"
	"apollo/internal/tensor"
)

type AdamW struct {
	Base
	rng      *tensor.RNG // want `tensor.RNG: tensor.RNG kept in optim/core`
	fallback []*nn.Param // want `declared fallback: covered/fallback split outside optim.Base`
}

func (a *AdamW) Step(ps []*nn.Param) {
	runtime.ForRange(len(ps), 1, func(lo, hi int) {}) // want `runtime.ForRange: parameter fan-out outside optim.Base.Walk`
	a.dense.Step(a.fallback)                          // want `optim.Base.dense: covered/fallback split outside optim.Base`
}

func OrderFree() bool { return true } // want `declared OrderFree: order-keeping layer reintroduced`
