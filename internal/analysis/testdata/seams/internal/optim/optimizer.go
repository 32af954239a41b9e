package optim

import "apollo/internal/nn"

type StateSaver interface {
	CaptureParam(p *nn.Param) []float32
}

type StateLoader interface {
	RestoreParam(p *nn.Param, st []float32) error
}

// Optimizer is checkpointable by type: the one place that names the two
// hooks.
type Optimizer interface {
	Step(ps []*nn.Param)
	SetLR(lr float64)
	StateSaver
	StateLoader
}
