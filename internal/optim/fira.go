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

func firaRule(e *Projected, st *ProjState, p *nn.Param, grad *tensor.Matrix, ws *Workspace) *tensor.Matrix {
	r, normalized := ws.RankSpace(e.cfg.Rank, grad.Cols)
	st.Proj.ProjectInto(r, grad) // r×n
	e.Moments(st, normalized, r) // ˜R

	// Low-rank part of the update (the GaLore term).
	lowRank := ws.dense[0].shaped(grad.Rows, grad.Cols)
	st.Proj.ProjectBackInto(lowRank, normalized)

	// Residual: E = G − PᵀPG, scaled per channel j by ‖˜R[:,j]‖/‖R[:,j]‖.
	residual := ws.dense[1].shaped(grad.Rows, grad.Cols)
	st.Proj.ProjectBackInto(residual, r) // PᵀR = PᵀPG
	tensor.SubInto(residual, grad, residual)
	nNorms, rNorms, scale := ws.Channels(grad.Cols)
	normalized.ColNormsInto(nNorms)
	r.ColNormsInto(rNorms)
	for j := range scale {
		scale[j] = 0
		if rNorms[j] > 1e-12 {
			scale[j] = float32(nNorms[j] / rNorms[j])
		}
	}
	tensor.ScaleColsInPlace(residual, scale)

	// Norm-growth limiter on the residual term (equation 4), taken in m×n
	// orientation before the sum.
	st.LimitNormGrowth(residual, DefaultGamma)
	tensor.AddInPlace(lowRank, residual)
	return ws.lift(p, lowRank, e.cfg.Scale)
}
