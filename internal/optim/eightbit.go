package optim

import (
	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/quant"
	"apollo/internal/tensor"
)

// Adam8bit keeps AdamW's first and second moments quantized to INT8 between
// steps (group-wise absmax, like bitsandbytes' 8-bit Adam). It is the
// "8-bit Adam" baseline of Table 3: 4× less optimizer memory than AdamW at
// a small quality cost.
type Adam8bit struct {
	h     Hyper
	group int
	state map[*nn.Param]*adam8State
	rng   *tensor.RNG
}

type adam8State struct {
	m, v *quant.Tensor8
	t    int
}

// NewAdam8bit builds the optimizer with the paper's group size of 128.
func NewAdam8bit(h Hyper, seed uint64) *Adam8bit {
	return &Adam8bit{
		h:     h.withDefaults(),
		group: quant.DefaultGroupSize,
		state: map[*nn.Param]*adam8State{},
		rng:   tensor.NewRNG(seed),
	}
}

// Name implements Optimizer.
func (a *Adam8bit) Name() string { return "8-bit Adam" }

// SetLR implements Optimizer.
func (a *Adam8bit) SetLR(lr float64) { a.h.LR = lr }

// LR implements Optimizer.
func (a *Adam8bit) LR() float64 { return a.h.LR }

// Step implements Optimizer.
func (a *Adam8bit) Step(ps []*nn.Param) {
	for _, p := range ps {
		st, ok := a.state[p]
		if !ok {
			st = &adam8State{
				m: quant.NewTensor8(p.W.Rows, p.W.Cols, a.group),
				v: quant.NewTensor8(p.W.Rows, p.W.Cols, a.group),
			}
			a.state[p] = st
		}
		st.t++
		// Dequantize, run the float update, requantize with stochastic
		// rounding so tiny moment changes survive in expectation. The second
		// moment is stored in the sqrt domain: V's dynamic range is the
		// square of M's, and linear INT8 codes would zero out most of it,
		// which blows up m̂/√v̂ wherever m survives but v does not.
		m := quant.Dequantize(st.m, nil)
		v := quant.Dequantize(st.v, nil) // holds √v
		for i, sv := range v.Data {
			v.Data[i] = sv * sv
		}
		b1 := float32(a.h.Beta1)
		b2 := float32(a.h.Beta2)
		c1 := float32(1 / (1 - pow(a.h.Beta1, st.t)))
		c2 := float32(1 / (1 - pow(a.h.Beta2, st.t)))
		eps := float32(a.h.Eps)
		dir := tensor.NewMatrix(p.W.Rows, p.W.Cols)
		for i, g := range p.Grad.Data {
			m.Data[i] = b1*m.Data[i] + (1-b1)*g
			vv := b2*v.Data[i] + (1-b2)*g*g
			if vv < 0 {
				vv = 0
			}
			v.Data[i] = vv
			dir.Data[i] = (m.Data[i] * c1) / (sqrt32(vv*c2) + eps)
		}
		quant.Quantize(st.m, m, a.rng)
		for i, vv := range v.Data {
			v.Data[i] = sqrt32(vv)
		}
		quant.Quantize(st.v, v, a.rng)
		DecayAndApply(p, dir, a.h.LR, a.h.WeightDecay)
	}
}

// StateBytes implements Optimizer.
func (a *Adam8bit) StateBytes() int64 {
	var total int64
	for _, st := range a.state { //apollo:orderfree exact integer sum; iteration order cannot reach the result
		total += st.m.Bytes() + st.v.Bytes()
	}
	return total
}

// GaLore8bit quantizes GaLore's projected moments to INT8 — the "8-bit
// GaLore" row of Table 3 (Q-GaLore's optimizer-state half; its INT8 weights
// are handled by internal/quant.QuantizedWeight at the training-loop level).
type GaLore8bit struct {
	h     Hyper
	cfg   LowRankConfig
	group int

	states map[*nn.Param]*galore8State
	dense  *Adam8bit
	rng    *tensor.RNG
}

type galore8State struct {
	proj  *linalg.Projector
	m, v  *quant.Tensor8
	t     int
	o     orientation
	since int
}

// NewGaLore8bit builds the optimizer.
func NewGaLore8bit(h Hyper, cfg LowRankConfig) *GaLore8bit {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &GaLore8bit{
		h:      h.withDefaults(),
		cfg:    cfg,
		group:  quant.DefaultGroupSize,
		states: map[*nn.Param]*galore8State{},
		dense:  NewAdam8bit(h, cfg.Seed+3),
		rng:    tensor.NewRNG(cfg.Seed + 4),
	}
}

// Name implements Optimizer.
func (g *GaLore8bit) Name() string { return "8-bit GaLore" }

// SetLR implements Optimizer.
func (g *GaLore8bit) SetLR(lr float64) {
	g.h.LR = lr
	g.dense.SetLR(lr)
}

// LR implements Optimizer.
func (g *GaLore8bit) LR() float64 { return g.h.LR }

// Step implements Optimizer.
func (g *GaLore8bit) Step(ps []*nn.Param) {
	var fallback []*nn.Param
	for _, p := range ps {
		if !projects(p, g.cfg.Rank) {
			fallback = append(fallback, p)
			continue
		}
		st, ok := g.states[p]
		if !ok {
			o := orient(p.W.Rows, p.W.Cols)
			st = &galore8State{
				proj: linalg.NewProjector(g.cfg.Projection, g.cfg.Rank, g.rng.Uint64()),
				m:    quant.NewTensor8(g.cfg.Rank, o.n, g.group),
				v:    quant.NewTensor8(g.cfg.Rank, o.n, g.group),
				o:    o,
			}
			g.states[p] = st
		}
		grad := orientedView(p.Grad, st.o)
		if !st.proj.Ready() || (g.cfg.UpdateGap > 0 && st.since >= g.cfg.UpdateGap) {
			st.proj.Refresh(grad)
			st.since = 0
		}
		st.since++
		st.t++

		r := st.proj.Project(grad)
		m := quant.Dequantize(st.m, nil)
		v := quant.Dequantize(st.v, nil) // sqrt domain, see Adam8bit
		for i, sv := range v.Data {
			v.Data[i] = sv * sv
		}
		b1 := float32(g.h.Beta1)
		b2 := float32(g.h.Beta2)
		c1 := float32(1 / (1 - pow(g.h.Beta1, st.t)))
		c2 := float32(1 / (1 - pow(g.h.Beta2, st.t)))
		eps := float32(g.h.Eps)
		for i, gv := range r.Data {
			m.Data[i] = b1*m.Data[i] + (1-b1)*gv
			vv := b2*v.Data[i] + (1-b2)*gv*gv
			if vv < 0 {
				vv = 0
			}
			v.Data[i] = vv
			r.Data[i] = (m.Data[i] * c1) / (sqrt32(vv*c2) + eps)
		}
		quant.Quantize(st.m, m, g.rng)
		for i, vv := range v.Data {
			v.Data[i] = sqrt32(vv)
		}
		quant.Quantize(st.v, v, g.rng)

		update := st.proj.ProjectBack(r)
		dir := unorient(update, st.o)
		tensor.ScaleInPlace(dir, float32(g.cfg.Scale))
		DecayAndApply(p, dir, g.h.LR, g.h.WeightDecay)
	}
	if len(fallback) > 0 {
		g.dense.Step(fallback)
	}
}

// StateBytes implements Optimizer.
func (g *GaLore8bit) StateBytes() int64 {
	total := g.dense.StateBytes()
	for _, st := range g.states { //apollo:orderfree exact integer sum; iteration order cannot reach the result
		total += st.m.Bytes() + st.v.Bytes()
		total += 4 * int64(st.proj.StateFloats())
	}
	return total
}
