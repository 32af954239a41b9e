package eval

import (
	"math"

	"apollo/internal/nn"
	"apollo/internal/tensor"
)

func Score(m *nn.Model, seq []int) float64 {
	row := m.Forward(seq) // want `nn.Model.Forward: full forward in a scoring path`
	return tensor.LogSumExp(row) + math.Inf(-1)
}
