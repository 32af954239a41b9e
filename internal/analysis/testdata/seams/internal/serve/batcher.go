package serve

import (
	"math"

	"apollo/internal/eval"
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

func run(m *nn.Model, b *nn.Block, seq []int) float64 {
	row := m.ForwardFrom(seq, 1)
	full := m.Forward(seq) // want `nn.Model.Forward: full forward in a scoring path`
	fwd := m.Forward       // want `nn.Model.Forward: full forward in a scoring path`
	_ = fwd
	_ = b.Forward(row)            // another type's Forward
	lse := tensor.LogSumExp(full) // want `tensor.LogSumExp: scoring rule copied into internal/serve`
	inf := math.Inf(-1)           // want `math.Inf: scoring rule copied into internal/serve`
	return eval.Score(m, seq) + lse + inf
}

type serveMetrics struct{}

func (m *serveMetrics) Observe() {} // want `declared serveMetrics.Observe: metrics wrapper method in internal/serve`

// kind is outside the catalogue row's packages.
func kind(name string) int {
	switch name {
	case "APOLLO":
		return 1
	}
	return 0
}
