package optim

import (
	"fmt"

	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// LowRankConfig carries the knobs shared by every projected optimizer
// (GaLore, Fira, Flora here; APOLLO in internal/core).
type LowRankConfig struct {
	Rank       int
	Scale      float64 // GaLore's α applied to the lifted update (paper: 0.25)
	UpdateGap  int     // projection refresh period T (paper: 200)
	Projection linalg.ProjectionKind
	Seed       uint64
}

func (c LowRankConfig) withDefaults() LowRankConfig {
	if c.Scale == 0 { //apollo:exactfloat zero is the unset-field sentinel; defaults fill only untouched fields
		c.Scale = 0.25
	}
	if c.UpdateGap == 0 {
		c.UpdateGap = 200
	}
	if c.Seed == 0 {
		c.Seed = 0x6A10_12E
	}
	return c
}

// Validate checks the configuration.
func (c LowRankConfig) Validate() error {
	if c.Rank < 1 {
		return fmt.Errorf("optim: rank %d < 1", c.Rank)
	}
	if c.UpdateGap < 0 {
		return fmt.Errorf("optim: negative update gap %d", c.UpdateGap)
	}
	return nil
}

// projects reports whether a parameter gets the low-rank treatment: 2-D
// matrices whose smaller dimension exceeds the rank, exactly like the
// reference GaLore implementation (norms, embeddings and small matrices fall
// back to dense AdamW).
func projects(p *nn.Param, rank int) bool {
	if p.Kind != nn.KindMatrix {
		return false
	}
	o := orient(p.W.Rows, p.W.Cols)
	return o.m > rank
}

// projSince is the scalar after adamT in every projected schema: steps since
// the last projection refresh.
const projSince = 1

// refreshDue counts this step against st's refresh cadence and reports
// whether the projection must be rebuilt before it is used: at first use, and
// every gap steps after (gap 0: never again).
func refreshDue(st *Entry, gap int) bool {
	due := !st.Proj.Ready() || (gap > 0 && st.S[projSince] >= uint64(gap))
	if due {
		st.S[projSince] = 0
	}
	st.S[projSince]++
	return due
}

// rankSpace is the shape of a moment of the r×n projected gradient.
func rankSpace(rank int) func(p *nn.Param) (int, int) {
	return func(p *nn.Param) (int, int) { return rank, orient(p.W.Rows, p.W.Cols).n }
}

// GaLore (Zhao et al., 2024) projects gradients into a rank-r subspace,
// runs AdamW there, and lifts the normalized update back: W ← W −
// lr·α·Pᵀ·AdamW(P·G). The subspace is recomputed every UpdateGap steps via
// SVD (or random projection for the Fig. 5 ablation, which the paper shows
// degrades GaLore badly).
type GaLore = Projected

// NewGaLore builds the optimizer.
func NewGaLore(h Hyper, cfg LowRankConfig) *GaLore {
	cfg = cfg.withDefaults()
	name := "GaLore"
	if cfg.Projection == linalg.RandomProjection {
		name = "GaLore-RP"
	}
	return NewProjected(name, h, cfg, false, liftedAdam)
}

// liftedAdam is GaLore's rule (and Flora's and 8-bit GaLore's): AdamW in the
// subspace, lifted back and scaled by α.
func liftedAdam(e *Projected, st *ProjState, p *nn.Param, grad *tensor.Matrix, ws *Workspace) *tensor.Matrix {
	r, _ := ws.RankSpace(e.cfg.Rank, grad.Cols)
	st.Proj.ProjectInto(r, grad) // r×n
	// In place: r becomes the normalized direction.
	if st.Q != nil { // INT8 moments
		st.S[adamT]++
		adam8Direction(st.Q[adamM], st.Q[adamV], r, r, e.h, int(st.S[adamT]), tensor.Mix(e.cfg.Seed, p.Name, st.S[adamT]))
	} else {
		e.Moments(st, r, r)
	}
	update := ws.dense[0].shaped(grad.Rows, grad.Cols)
	st.Proj.ProjectBackInto(update, r)
	return ws.lift(p, update, e.cfg.Scale)
}
