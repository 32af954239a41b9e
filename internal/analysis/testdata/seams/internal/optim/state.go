package optim

import "apollo/internal/nn"

type StateTable struct {
	fallback *StateTable
}

func (t *StateTable) CaptureParam(p *nn.Param) []float32 { return nil }

func (t *StateTable) RestoreParam(p *nn.Param, st []float32) error { return nil }

// Schema keeps no Redraws count: a comment or a local is no declaration.
type Schema struct {
	Slots   int
	Redraws int // want `declared Redraws: order-keeping layer reintroduced`
}

func (sc Schema) keyed() bool {
	OrderFree := sc.Slots >= 0
	return OrderFree
}
