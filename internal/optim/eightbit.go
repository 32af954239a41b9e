package optim

import (
	"apollo/internal/nn"
	"apollo/internal/quant"
	"apollo/internal/tensor"
)

// Adam8bit keeps AdamW's first and second moments quantized to INT8 between
// steps (group-wise absmax at the paper's group size of 128, like
// bitsandbytes' 8-bit Adam). It is the "8-bit Adam" baseline of Table 3: 4×
// less optimizer memory than AdamW at a small quality cost.
//
// Layout — per parameter: Scalars [t]; Blobs [m codes, m scales, v codes, v
// scales]. INT8 groups straddle row boundaries, so the update is never
// row-splittable. Step t's rounding noise for slot k of parameter p is keyed
// tensor.Mix(seed, p.Name, t, k).
type Adam8bit struct {
	Base
	seed uint64
}

// NewAdam8bit builds the optimizer.
func NewAdam8bit(h Hyper, seed uint64) *Adam8bit {
	sc := Schema{
		Name:    "8-bit Adam",
		Scalars: []Scalar{{Name: "t"}},
		Slots:   []Slot{{Name: "m", Kind: Int8}, {Name: "v", Kind: Int8}},
	}
	return &Adam8bit{NewBase(sc, h, nil), seed}
}

// Step implements Optimizer.
func (a *Adam8bit) Step(ps []*nn.Param) { a.Walk(ps, a.update) }

func (a *Adam8bit) update(p *nn.Param, st *Entry, _ bool, ws *Workspace) {
	st.S[adamT]++
	dir := ws.Direction(p)
	adam8Direction(st.Q[adamM], st.Q[adamV], dir, p.Grad, a.h, int(st.S[adamT]), tensor.Mix(a.seed, p.Name, st.S[adamT]))
	DecayAndApply(p, dir, a.h.LR, a.h.WeightDecay)
}

// adam8Direction is step t of the AdamW moment update on INT8 moments:
// dequantize, run the float update by g, write the normalized direction into
// out (which may alias g), and requantize with stochastic rounding — slot k
// keyed tensor.Mix(key, "", k) — so tiny moment changes survive in
// expectation. The second moment is stored in the sqrt domain: V's dynamic
// range is the square of M's, and linear INT8 codes would zero out most of
// it, which blows up m̂/√v̂ wherever m survives but v does not.
func adam8Direction(mq, vq *quant.Tensor8, out, g *tensor.Matrix, h Hyper, t int, key uint64) {
	m := quant.Dequantize(mq, nil)
	v := quant.Dequantize(vq, nil) // holds √v
	for i, sv := range v.Data {
		v.Data[i] = sv * sv
	}
	b1 := float32(h.Beta1)
	b2 := float32(h.Beta2)
	c1 := float32(1 / (1 - pow(h.Beta1, t)))
	c2 := float32(1 / (1 - pow(h.Beta2, t)))
	eps := float32(h.Eps)
	for i, gv := range g.Data {
		m.Data[i] = b1*m.Data[i] + (1-b1)*gv
		vv := b2*v.Data[i] + (1-b2)*gv*gv
		if vv < 0 {
			vv = 0
		}
		v.Data[i] = vv
		out.Data[i] = (m.Data[i] * c1) / (sqrt32(vv*c2) + eps)
	}
	quant.Quantize(mq, m, tensor.Mix(key, "", adamM))
	for i, vv := range v.Data {
		v.Data[i] = sqrt32(vv)
	}
	quant.Quantize(vq, v, tensor.Mix(key, "", adamV))
}

// GaLore8bit is GaLore with its projected moments quantized to INT8 — the
// "8-bit GaLore" row of Table 3 (Q-GaLore's optimizer-state half; its INT8
// weights are handled by internal/quant.QuantizedWeight at the training-loop
// level). It is the projected engine with two declarations changed, INT8 m
// and v slots and 8-bit Adam as the fallback, and GaLore's rule, which runs
// the moment update on the INT8 codes: step t's rounding noise for a
// projected parameter is keyed tensor.Mix(cfg.Seed, p.Name, t).
//
// Layout — projected parameters: Scalars [t, since, proj seed, proj rng, proj
// m, proj ready]; Blobs [m codes, m scales, v codes, v scales] at r×n; Whole
// [SVD P] once built. Everything else is the dense 8-bit Adam's.
type GaLore8bit = Projected

// NewGaLore8bit builds the optimizer.
func NewGaLore8bit(h Hyper, cfg LowRankConfig) *GaLore8bit {
	cfg = cfg.withDefaults()
	return newProjected("8-bit GaLore", h, cfg, false, liftedAdam, Int8, NewAdam8bit(h, cfg.Seed+3))
}
