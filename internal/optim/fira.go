package optim

import (
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// Fira (Chen et al., 2024) extends GaLore with the full-rank error residual:
// the part of the gradient outside the subspace, E = G − PᵀPG, is added back
// scaled per channel by the ratio ‖AdamW(R)[:,j]‖/‖R[:,j]‖ — simulating a
// full-rank update while keeping low-rank optimizer states. A norm-growth
// limiter (γ = DefaultGamma) tames spikes in the residual term. The paper
// compares against Fira throughout Tables 2/5/6 and observes APOLLO
// overtakes it at scale.
type Fira = Projected

// NewFira builds the optimizer; projection defaults to SVD as in the paper.
func NewFira(h Hyper, cfg LowRankConfig) *Fira {
	cfg = cfg.withDefaults()
	cfg.Seed++
	return NewProjected("Fira", h, cfg, true, firaRule)
}

func firaRule(e *Projected, st *ProjState, _ *nn.Param, grad *tensor.Matrix) *tensor.Matrix {
	r := st.proj.Project(grad) // r×n
	rNorms := r.ColNorms()
	normalized := r.Clone()
	e.Moments(st, normalized, r) // ˜R

	// Low-rank part of the update (the GaLore term).
	lowRank := st.proj.ProjectBack(normalized)

	// Residual: E = G − PᵀPG, scaled per channel j by ‖˜R[:,j]‖/‖R[:,j]‖.
	backProj := st.proj.ProjectBack(r) // PᵀR = PᵀPG
	residual := tensor.Sub(grad, backProj)
	nNorms := normalized.ColNorms()
	scale := make([]float32, len(nNorms))
	for j := range scale {
		if rNorms[j] > 1e-12 {
			scale[j] = float32(nNorms[j] / rNorms[j])
		}
	}
	tensor.ScaleColsInPlace(residual, scale)

	// Norm-growth limiter on the residual term (equation 4), taken in m×n
	// orientation before the sum.
	st.LimitNormGrowth(residual, DefaultGamma)
	return e.lift(st, tensor.Add(lowRank, residual))
}
