package serve

import (
	"math"

	"apollo/internal/nn"
)

// Use rows skip test files.
func reference(m *nn.Model) float64 { return float64(len(m.Forward(nil))) + math.Inf(1) }
