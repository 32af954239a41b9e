package optim

import (
	"math"

	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// AdamMini (Zhang et al., 2024b) keeps the full first moment but replaces
// the element-wise second moment with one shared value per parameter block —
// here one value per output channel for matrices/embeddings and one scalar
// for vector parameters. This halves optimizer state relative to AdamW
// (full M, tiny V), the trade-off Table 1's related-work discussion cites:
// memory savings stop at ~50% because M stays full-rank.
type AdamMini struct {
	h     Hyper
	state map[*nn.Param]*miniState
}

type miniState struct {
	m *tensor.Matrix // full first moment
	v []float32      // block second moments (len = rows, or 1 for vectors)
	t int
}

// NewAdamMini constructs the optimizer.
func NewAdamMini(h Hyper) *AdamMini {
	return &AdamMini{h: h.withDefaults(), state: map[*nn.Param]*miniState{}}
}

// Name implements Optimizer.
func (a *AdamMini) Name() string { return "Adam-mini" }

// SetLR implements Optimizer.
func (a *AdamMini) SetLR(lr float64) { a.h.LR = lr }

// LR implements Optimizer.
func (a *AdamMini) LR() float64 { return a.h.LR }

// Step implements Optimizer.
func (a *AdamMini) Step(ps []*nn.Param) {
	for _, p := range ps {
		st, ok := a.state[p]
		if !ok {
			blocks := p.W.Rows
			if p.Kind == nn.KindVector {
				blocks = 1
			}
			st = &miniState{m: tensor.NewMatrix(p.W.Rows, p.W.Cols), v: make([]float32, blocks)}
			a.state[p] = st
		}
		st.t++
		b1 := float32(a.h.Beta1)
		b2 := float32(a.h.Beta2)
		c1 := 1 / (1 - pow(a.h.Beta1, st.t))
		c2 := 1 / (1 - pow(a.h.Beta2, st.t))
		eps := a.h.Eps

		dir := tensor.NewMatrix(p.W.Rows, p.W.Cols)
		if p.Kind == nn.KindVector {
			// Single block: shared v for the whole tensor.
			meanSq := float32(p.Grad.SqNorm() / float64(p.Grad.NumEl()))
			st.v[0] = b2*st.v[0] + (1-b2)*meanSq
			denom := math.Sqrt(float64(st.v[0])*c2) + eps
			for i, g := range p.Grad.Data {
				st.m.Data[i] = b1*st.m.Data[i] + (1-b1)*g
				dir.Data[i] = float32(float64(st.m.Data[i]) * c1 / denom)
			}
		} else {
			cols := p.W.Cols
			for r := 0; r < p.W.Rows; r++ {
				grow := p.Grad.Row(r)
				mrow := st.m.Row(r)
				drow := dir.Row(r)
				meanSq := float32(tensor.SqNormSlice(grow) / float64(cols))
				st.v[r] = b2*st.v[r] + (1-b2)*meanSq
				denom := math.Sqrt(float64(st.v[r])*c2) + eps
				for i, g := range grow {
					mrow[i] = b1*mrow[i] + (1-b1)*g
					drow[i] = float32(float64(mrow[i]) * c1 / denom)
				}
			}
		}
		DecayAndApply(p, dir, a.h.LR, a.h.WeightDecay)
	}
}

// StateBytes implements Optimizer.
func (a *AdamMini) StateBytes() int64 {
	var total int64
	for _, st := range a.state { //apollo:orderfree exact integer sum; iteration order cannot reach the result
		total += 4 * int64(st.m.NumEl()+len(st.v))
	}
	return total
}
