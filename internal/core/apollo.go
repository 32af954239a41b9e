package core

import (
	"fmt"
	"math"
	"sync"

	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// Config parameterizes APOLLO (Algorithm 1). Zero values resolve to the
// paper defaults via withDefaults.
type Config struct {
	// Rank of the auxiliary space (paper: n/4 or n/8 for APOLLO, 1 for
	// APOLLO-Mini).
	Rank int
	// Granularity of the scaling factor: Channel (APOLLO) or Tensor
	// (APOLLO-Mini).
	Granularity Granularity
	// Scale is the gradient scale α. Defaults: 1 for channel granularity,
	// √128 for tensor granularity — the Theorem-A.4 √(n/r) compensation
	// folded into a constant, as the paper does.
	Scale float64
	// UpdateGap is the projection refresh period T (paper: 200). For random
	// projection a refresh is just a new seed.
	UpdateGap int
	// Projection selects random (default) or SVD subspaces ("APOLLO w. SVD").
	Projection linalg.ProjectionKind
	// DisableNL switches the norm-growth limiter (γ = DefaultGamma) off
	// (ablation).
	DisableNL bool
	// Seed drives all projection randomness.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 { //apollo:exactfloat zero is the unset-field sentinel; defaults fill only untouched fields
		if c.Granularity == Tensor {
			c.Scale = math.Sqrt(128)
		} else {
			c.Scale = 1
		}
	}
	if c.UpdateGap == 0 {
		c.UpdateGap = 200
	}
	if c.Seed == 0 {
		c.Seed = 0xA9011_0
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rank < 1 {
		return fmt.Errorf("core: rank %d < 1", c.Rank)
	}
	if c.Scale < 0 {
		return fmt.Errorf("core: negative scale %v", c.Scale)
	}
	return nil
}

// engine is embedded under an unexported name so APOLLO gains the projected
// engine's methods without gaining an exported field.
type engine = optim.Projected

// APOLLO is the paper's optimizer: AdamW moments are kept only in an
// auxiliary rank-r space fed by a (re-seedable) random projection of the
// gradient; the only thing read out of that space is a channel- or
// tensor-wise norm ratio, which rescales the *raw full-rank gradient*. The
// weight update is therefore SGD-shaped with a structured adaptive step
// size — SGD-like memory, AdamW-level behaviour.
//
// State, sharding, accounting and checkpointing are optim.Projected's (the
// layout GaLore introduced, Table 1's 2nr + 2: auxiliary moments, projection
// seed, limiter norm; the SVD variant persists its r×m projection instead of
// the seed). Only the update rule below is APOLLO's own.
type APOLLO struct {
	*engine
	cfg Config

	// ScalingProbe, when non-nil, receives each matrix parameter's
	// channel scaling factors every step (Fig. 4 instrumentation). It is
	// called on the goroutine that stepped the group — under the training
	// loop's overlapped step, its stepping goroutine — once per projected
	// matrix of the group, in list order, after all of them have been
	// stepped.
	ScalingProbe func(param string, s []float64)

	probeMu sync.Mutex
	probed  map[*nn.Param][]float64 // this step's factors, awaiting delivery
}

// New constructs an APOLLO optimizer from cfg.
func New(h optim.Hyper, cfg Config) *APOLLO {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	name := "APOLLO"
	if cfg.Granularity == Tensor && cfg.Rank == 1 {
		name = "APOLLO-Mini"
	}
	if cfg.Projection == linalg.SVDProjection {
		name += " w. SVD"
	}
	a := &APOLLO{cfg: cfg}
	// The limiter slot is part of the layout even with DisableNL.
	a.engine = optim.NewProjected(name, h, optim.LowRankConfig{
		Rank: cfg.Rank, Scale: cfg.Scale, UpdateGap: cfg.UpdateGap,
		Projection: cfg.Projection, Seed: cfg.Seed,
	}, true, a.rule)
	return a
}

// NewMini constructs APOLLO-Mini: rank-1 auxiliary space, tensor-wise
// scaling, α = √128 (Section 4.2).
func NewMini(h optim.Hyper) *APOLLO {
	return New(h, Config{Rank: 1, Granularity: Tensor})
}

// Config returns the resolved configuration.
func (a *APOLLO) Config() Config { return a.cfg }

// Step implements optim.Optimizer. The rules run concurrently; what they
// collected for the probe is delivered here, serially and in list order.
func (a *APOLLO) Step(ps []*nn.Param) {
	a.engine.Step(ps)
	if a.ScalingProbe == nil {
		return
	}
	for _, p := range ps {
		if s, ok := a.probed[p]; ok {
			delete(a.probed, p)
			a.ScalingProbe(p.Name, s)
		}
	}
}

// rule is Algorithm 1 from the projection on: the engine has already
// re-drawn the subspace when due (a new seed for random projection, an SVD
// for the w.-SVD variant) and hands over the gradient in m×n orientation.
func (a *APOLLO) rule(e *optim.Projected, st *optim.ProjState, p *nn.Param, grad *tensor.Matrix, ws *optim.Workspace) *tensor.Matrix {
	// Step 1: project the gradient into the rank-r auxiliary space.
	r, rTilde := ws.RankSpace(a.cfg.Rank, grad.Cols) // R_t and R̃_t, r×n
	st.ProjectInto(r, grad)

	// Step 2: auxiliary AdamW moments (λ = 0 inside the aux space).
	e.Moments(st, rTilde, r)

	// Step 3: structured scaling factors from the compressed space, one per
	// channel (a tensor-wise factor is the same factor for every channel).
	scales, den, factors := ws.Channels(grad.Cols)
	switch a.cfg.Granularity {
	case Tensor:
		scales = scales[:1]
		scales[0] = tensorScale(rTilde.Norm(), r.Norm())
		for j := range factors {
			factors[j] = float32(scales[0])
		}
	default: // Channel
		rTilde.ColNormsInto(scales)
		r.ColNormsInto(den)
		channelRatios(scales, den)
		for j, f := range scales {
			factors[j] = float32(f)
		}
	}
	if a.ScalingProbe != nil {
		a.probeMu.Lock()
		if a.probed == nil {
			a.probed = map[*nn.Param][]float64{}
		}
		a.probed[p] = append([]float64(nil), scales...)
		a.probeMu.Unlock()
	}

	// Step 4: rescale the raw gradient by the factors and α, tame its
	// growth, and apply — fused, in the parameter's native layout.
	e.ApplyScaledGrad(st, p, factors, float32(a.cfg.Scale), DefaultGamma, !a.cfg.DisableNL)
	return nil
}
