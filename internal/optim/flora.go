package optim

import (
	"apollo/internal/linalg"
	"apollo/internal/tensor"
)

// Flora (Hao et al., 2024) treats low-rank adapters as gradient compressors:
// it keeps Adam-style moments in a random rank-r subspace and lifts the
// normalized update back, resampling the projection periodically with a
// momentum-transfer step (m ← P_new·Pᵀ_old·m) so accumulated momentum
// survives subspace changes. Flora is fine-tuning oriented: the paper's
// Table 1 flags it as unable to pre-train competitively, which Table 2's
// proxies confirm — it is included as the "random projection done naively"
// baseline.
type Flora = Projected

// NewFlora builds the optimizer; the projection is always random (Flora has
// no SVD mode by construction). The update rule is GaLore's; what differs is
// the refresh.
func NewFlora(h Hyper, cfg LowRankConfig) *Flora {
	cfg = cfg.withDefaults()
	cfg.Projection = linalg.RandomProjection
	cfg.Seed += 2
	e := NewProjected("Flora", h, cfg, false, liftedAdam)
	e.refresh = transferMomentum
	return e
}

// transferMomentum refreshes the projection and carries the moments across:
// lift them with the old projection, re-compress with the new one.
func transferMomentum(st *ProjState, grad *tensor.Matrix) {
	if !st.Proj.Ready() {
		st.Proj.Refresh(grad)
		return
	}
	oldP := st.Proj.Matrix().Clone()
	st.Proj.Refresh(grad)
	transfer := tensor.MatMulT(st.Proj.Matrix(), oldP) // r×r
	st.M[adamM] = tensor.MatMul(transfer, st.M[adamM])
	st.M[adamV] = tensor.MatMul(transfer, st.M[adamV])
	// Second moments must stay non-negative after the rotation.
	for i, v := range st.M[adamV].Data {
		if v < 0 {
			st.M[adamV].Data[i] = 0
		}
	}
}
