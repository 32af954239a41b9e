package optim

import (
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// initFactors draws from a generator keyed by the parameter, used and
// dropped: no tensor.RNG is named or kept.
func initFactors(seed uint64, p *nn.Param) float64 {
	rng := tensor.NewRNG(tensor.Mix(seed, p.Name))
	return rng.Norm()
}
