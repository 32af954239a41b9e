// The projected-optimizer engine. GaLore, Fira, Flora (this package) and
// APOLLO (internal/core) keep the same thing per weight matrix — AdamW
// moments in a rank-r space at r×max-dim, the projector that maps into it, a
// refresh counter and, for the rules with a norm-growth limiter, one float of
// limiter memory — and differ only in what they read out of that space. The
// state is therefore declared once, as the Schema NewProjected builds, and
// the StateTable derives allocation, byte and element accounting and the
// canonical checkpoint layout from it (state.go); the walk that steps the
// projected parameters concurrently is Base's (base.go). What is left here is
// the engine's per-parameter step — the projector seed of a first touch, the
// refresh cadence, the rule, the apply — and an optimizer of the family is a
// constructor plus a Rule. 8-bit GaLore (eightbit.go) changes two
// declarations: INT8 moments and an 8-bit Adam fallback.
package optim

import (
	"fmt"
	"math"

	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// DefaultGamma is the norm-growth limiter threshold γ used by Fira and by
// the APOLLO paper throughout (Section 3.2).
const DefaultGamma = 1.01

// LimitNormGrowth applies the norm-growth limiter (APOLLO equation 4, Fira's
// residual limiter): if ‖g‖ / prevNorm > gamma, g is rescaled so its norm
// equals gamma·prevNorm. It returns the post-limit norm, which the caller
// stores as the next prevNorm. A prevNorm of zero (first step) disables
// limiting. This replaces vanilla gradient clipping and is what removes the
// early-training loss spike of structured updates (Fig. 3).
func LimitNormGrowth(g *tensor.Matrix, prevNorm, gamma float64) float64 {
	norm := g.Norm()
	if prevNorm > 0 && norm > gamma*prevNorm {
		target := gamma * prevNorm
		tensor.ScaleInPlace(g, float32(target/(norm+1e-30)))
		return target
	}
	return norm
}

// ApplyScaledGrad is the structured update of APOLLO and StructuredAdamW,
// fused. With u = α·(G∘s) — s[c] the factor of channel c, channels being
// columns when rows ≤ cols and rows otherwise — it runs the norm-growth
// limiter on u against *prevNorm (skipped when prevNorm is nil) and applies
// W ← W·(1−lr·wd) − lr·u in two passes over the gradient, never holding u.
//
// Bit for bit this is ScaleColsInPlace (or the same per-row scaling),
// ScaleInPlace(α), LimitNormGrowth and DecayAndApply run on a copy of G:
// every product is rounded to float32 on its own, and the norm is the float64
// sum of squares in flat index order over tensor.ReductionChunk partials. Where that
// sequence skips a multiply (limiter not firing, wd = 0) the fused loop
// multiplies by 1, which is exact.
func ApplyScaledGrad(p *nn.Param, s []float32, alpha float32, lr, wd, gamma float64, prevNorm *float64) {
	g, w := p.Grad, p.W
	byRow := w.Rows > w.Cols
	if channels := max(w.Rows, w.Cols); len(s) != channels {
		panic(fmt.Sprintf("optim: ApplyScaledGrad got %d factors for %d channels", len(s), channels))
	}
	limit := float32(1)
	if prevNorm != nil {
		norm := math.Sqrt(scaledSqNorm(g, s, byRow, alpha))
		if *prevNorm > 0 && norm > gamma**prevNorm {
			target := gamma * *prevNorm
			limit = float32(target / (norm + 1e-30))
			norm = target
		}
		*prevNorm = norm
	}
	decay := float32(1)
	if wd != 0 { //apollo:exactfloat zero weight decay disables the term exactly
		decay = float32(1 - lr*wd)
	}
	nlr := float32(-lr)
	for i := 0; i < w.Rows; i++ {
		if byRow {
			applyScaledRow(w.Row(i), g.Row(i), s[i], alpha, limit, decay, nlr)
		} else {
			applyScaledCols(w.Row(i), g.Row(i), s, alpha, limit, decay, nlr)
		}
	}
}

// scaledSqNorm returns ‖α·(G∘s)‖² in SqNorm's summation order.
func scaledSqNorm(g *tensor.Matrix, s []float32, byRow bool, alpha float32) float64 {
	d, cols := g.Data, g.Cols
	chunk := tensor.ReductionChunk(len(d))
	var total float64
	for lo := 0; lo < len(d); lo += chunk {
		hi := min(lo+chunk, len(d))
		var part float64
		for k := lo; k < hi; { // one row segment at a time
			i, j := k/cols, k%cols
			end := min(hi, (i+1)*cols)
			if byRow {
				part = sqNormScaledRow(part, d[k:end], s[i], alpha)
			} else {
				part = sqNormScaledCols(part, d[k:end], s[j:], alpha)
			}
			k = end
		}
		total += part
	}
	return total
}

// The four inner loops of ApplyScaledGrad. The float32 conversions are the
// rounding points of the unfused sequence; they also keep a compiler from
// fusing a product into the operation that consumes it.

func sqNormScaledCols(acc float64, g, s []float32, alpha float32) float64 {
	s = s[:len(g)]
	for j, gv := range g {
		u := float32(float32(gv*s[j]) * alpha)
		acc += float64(u) * float64(u)
	}
	return acc
}

func sqNormScaledRow(acc float64, g []float32, f, alpha float32) float64 {
	for _, gv := range g {
		u := float32(float32(gv*f) * alpha)
		acc += float64(u) * float64(u)
	}
	return acc
}

func applyScaledCols(w, g, s []float32, alpha, limit, decay, nlr float32) {
	g, s = g[:len(w)], s[:len(w)]
	for j := range w {
		u := float32(float32(float32(g[j]*s[j])*alpha) * limit)
		w[j] = float32(w[j]*decay) + float32(nlr*u)
	}
}

func applyScaledRow(w, g []float32, f, alpha, limit, decay, nlr float32) {
	g = g[:len(w)]
	for j := range w {
		u := float32(float32(float32(g[j]*f)*alpha) * limit)
		w[j] = float32(w[j]*decay) + float32(nlr*u)
	}
}

// ProjState is the state a projected optimizer holds for one weight matrix:
// the table entry of the schema NewProjected declares.
type ProjState Entry

// projPrevNorm is the limiter-memory scalar of a limiter rule's schema
// (float64 bits), after adamT and projSince.
const projPrevNorm = 2

// ProjectInto writes the projected gradient R = P·G (r×n) of the
// m×n-oriented gradient the rule was handed into r.
func (st *ProjState) ProjectInto(r, grad *tensor.Matrix) { st.Proj.ProjectInto(r, grad) }

// LimitNormGrowth runs the limiter on u against this parameter's memory.
func (st *ProjState) LimitNormGrowth(u *tensor.Matrix, gamma float64) {
	st.S[projPrevNorm] = F64Bits(LimitNormGrowth(u, F64From(st.S[projPrevNorm]), gamma))
}

// Rule is the one thing the projected optimizers differ in: given the
// engine (for Moments), the parameter's state, its gradient in m×n
// orientation (m ≤ n) and the calling worker's scratch, return the update
// direction in the parameter's native orientation, fully scaled — or nil
// when the rule has applied its update itself (ApplyScaledGrad). The engine
// has already refreshed the projector when due; it applies a returned
// direction with decoupled weight decay.
//
// Step runs a rule concurrently for different parameters (Base.Walk). A rule
// may touch only its ProjState, its *nn.Param and the Workspace it was handed
// (grad and the returned direction may live there); a returned direction is
// read before that participant's next rule call and not after.
type Rule func(e *Projected, st *ProjState, p *nn.Param, grad *tensor.Matrix, ws *Workspace) *tensor.Matrix

// Projected is the engine behind every projected optimizer. It implements
// Optimizer; everything but Step is its Base's, and parameters that are not
// projected are the Base's dense fallback's (AdamW; 8-bit Adam for 8-bit
// GaLore).
type Projected struct {
	Base
	cfg  LowRankConfig
	rule Rule
	// refresh rebuilds st's projection from grad; Flora replaces the default
	// to carry its momentum across the subspace change.
	refresh func(st *ProjState, grad *tensor.Matrix)
}

// NewProjected builds an engine around rule. cfg is taken as resolved (no
// defaults are applied); a projected parameter's projector is seeded
// tensor.Mix(cfg.Seed, its name). limiter says whether the rule uses
// ProjState.LimitNormGrowth.
//
// The state it declares is Table 1's: 2nr rank-space moments, the projector
// (mr for a persisted SVD projection, 1 for a random projection's seed) and,
// for limiter rules, one float of limiter memory. Canonical layout of a
// projected parameter: Scalars [t, since, (prevNorm bits — limiter rules
// only,) proj seed, proj rng, proj m, proj ready]; Whole [m (r×n), v (r×n)]
// (+ the r×m SVD projection once built).
// Only the dense fallback is element-wise; a projected matrix's subspace
// statistics couple all of it. Other parameters are dense AdamW's.
func NewProjected(name string, h Hyper, cfg LowRankConfig, limiter bool, rule Rule) *Projected {
	return newProjected(name, h, cfg, limiter, rule, Whole, NewAdamW(h))
}

// newProjected is NewProjected with the moments' storage and the fallback
// given: 8-bit GaLore keeps its moments as Int8 and steps the rest with 8-bit
// Adam.
func newProjected(name string, h Hyper, cfg LowRankConfig, limiter bool, rule Rule, moments SlotKind, dense Fallback) *Projected {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sc := Schema{
		Name:    name,
		Scalars: []Scalar{{Name: "t"}, {Name: "since"}},
		Slots: []Slot{
			{Name: "m", Kind: moments, Dims: rankSpace(cfg.Rank)},
			{Name: "v", Kind: moments, Dims: rankSpace(cfg.Rank)},
		},
		Proj:   &Projection{Kind: cfg.Projection, Rank: cfg.Rank},
		Covers: func(p *nn.Param) bool { return projects(p, cfg.Rank) },
	}
	if limiter {
		sc.Scalars = append(sc.Scalars, Scalar{Name: "prevNorm", Counted: true})
	}
	return &Projected{
		Base:    NewBase(sc, h, dense),
		cfg:     cfg,
		rule:    rule,
		refresh: func(st *ProjState, grad *tensor.Matrix) { st.Proj.Refresh(grad) },
	}
}

// Moments advances st's rank-space AdamW moments by the projected gradient r
// and writes the normalized direction m̂/(√v̂+ε) into out (which may alias r).
func (e *Projected) Moments(st *ProjState, out, r *tensor.Matrix) {
	(*Entry)(st).Adam(adamT, adamM, adamV, out, r, e.h)
}

// ApplyScaledGrad is ApplyScaledGrad with the engine's learning rate and
// weight decay and st's limiter memory (left alone when limit is false).
func (e *Projected) ApplyScaledGrad(st *ProjState, p *nn.Param, s []float32, alpha float32, gamma float64, limit bool) {
	if !limit {
		ApplyScaledGrad(p, s, alpha, e.h.LR, e.h.WeightDecay, gamma, nil)
		return
	}
	prevNorm := F64From(st.S[projPrevNorm])
	ApplyScaledGrad(p, s, alpha, e.h.LR, e.h.WeightDecay, gamma, &prevNorm)
	st.S[projPrevNorm] = F64Bits(prevNorm)
}

// Step implements Optimizer: project (refreshing the subspace every
// UpdateGap steps), let the rule turn state and gradient into a direction,
// apply it — one parameter per stepOne, concurrently on the pool (Base.Walk);
// everything not projected goes to the dense fallback.
func (e *Projected) Step(ps []*nn.Param) { e.Walk(ps, e.stepOne) }

// stepOne steps one projected parameter with the participant's scratch,
// seeding its projector at first touch.
func (e *Projected) stepOne(p *nn.Param, entry *Entry, fresh bool, ws *Workspace) {
	st := (*ProjState)(entry)
	if fresh {
		st.Proj = linalg.NewProjector(e.cfg.Projection, e.cfg.Rank, tensor.Mix(e.cfg.Seed, p.Name))
	}
	grad := ws.orientedGrad(p.Grad, orient(p.W.Rows, p.W.Cols))
	if refreshDue(entry, e.cfg.UpdateGap) {
		e.refresh(st, grad)
	}
	if dir := e.rule(e, st, p, grad, ws); dir != nil {
		DecayAndApply(p, dir, e.h.LR, e.h.WeightDecay)
	}
}
