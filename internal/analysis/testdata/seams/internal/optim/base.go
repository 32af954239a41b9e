package optim

import (
	"apollo/internal/nn"
	"apollo/internal/runtime"
)

type Base struct {
	*StateTable
	lr       float64
	dense    Optimizer
	fallback []*nn.Param
}

func (b *Base) SetLR(lr float64) {
	b.lr = lr
	if b.dense != nil {
		b.dense.SetLR(lr)
	}
}

func (b *Base) Walk(ps []*nn.Param, update func(p *nn.Param)) {
	b.fallback = b.fallback[:0]
	runtime.ForRange(len(ps), 1, func(lo, hi int) {
		for _, p := range ps[lo:hi] {
			update(p)
		}
	})
	if len(b.fallback) > 0 {
		b.dense.Step(b.fallback)
	}
}
