// Package core implements the paper's contribution: structured (channel- or
// tensor-wise) learning-rate adaptation for LLM training, and its
// memory-efficient realization APOLLO / APOLLO-Mini, which estimate the
// structured gradient-scaling factors inside a low-rank auxiliary optimizer
// state fed by pure random projection (Algorithm 1).
package core

import (
	"fmt"

	"apollo/internal/optim"
)

// DefaultGamma is the norm-growth limiter threshold used throughout the
// paper (γ = 1.01, Section 3.2). The limiter itself (equation 4) is
// optim.LimitNormGrowth, beside the projected engine, which Fira shares.
const DefaultGamma = optim.DefaultGamma

// Granularity selects how coarse the structured scaling factor is.
type Granularity int

const (
	// Channel scaling assigns one factor per channel along the larger
	// matrix dimension (APOLLO, Section 4.1).
	Channel Granularity = iota
	// Tensor scaling assigns a single factor to the whole matrix
	// (APOLLO-Mini, Section 4.2).
	Tensor
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case Channel:
		return "channel"
	case Tensor:
		return "tensor"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}
