package optimtest

import (
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// Grads draws test gradients from a stream: the harness is no optimizer.
func Grads(ps []*nn.Param, rng *tensor.RNG) {
	for _, p := range ps {
		for i := range p.W {
			p.W[i] = float32(rng.Norm())
		}
	}
}

type GaLore8bit struct{} // want `declared GaLore8bit: GaLore8bit as its own optimizer`
