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
type AdamMini struct{ Base }

// NewAdamMini constructs the optimizer. Layout: Scalars [t]; RowMats [m, v
// as a blocks×1 column]. Matrix/embedding blocks are per-row, so row splits
// preserve them exactly; a vector's elements share one block.
func NewAdamMini(h Hyper) *AdamMini {
	sc := Schema{
		Name:    "Adam-mini",
		Scalars: []Scalar{{Name: "t"}},
		Slots: []Slot{
			{Name: "m", Kind: RowAligned},
			{Name: "v", Kind: RowAligned, Dims: func(p *nn.Param) (int, int) {
				if p.Kind == nn.KindVector {
					return 1, 1
				}
				return p.W.Rows, 1
			}},
		},
		RowSplittable: func(p *nn.Param) bool { return p.Kind != nn.KindVector },
	}
	return &AdamMini{NewBase(sc, h, nil)}
}

// Step implements Optimizer.
func (a *AdamMini) Step(ps []*nn.Param) { a.Walk(ps, a.update) }

func (a *AdamMini) update(p *nn.Param, st *Entry, _ bool) {
	st.S[adamT]++
	t, m, v := int(st.S[adamT]), st.M[adamM], st.M[adamV].Data
	b1 := float32(a.h.Beta1)
	b2 := float32(a.h.Beta2)
	c1 := 1 / (1 - pow(a.h.Beta1, t))
	c2 := 1 / (1 - pow(a.h.Beta2, t))
	eps := a.h.Eps

	dir := a.Direction(p)
	if p.Kind == nn.KindVector {
		// Single block: shared v for the whole tensor.
		meanSq := float32(p.Grad.SqNorm() / float64(p.Grad.NumEl()))
		v[0] = b2*v[0] + (1-b2)*meanSq
		denom := math.Sqrt(float64(v[0])*c2) + eps
		for i, g := range p.Grad.Data {
			m.Data[i] = b1*m.Data[i] + (1-b1)*g
			dir.Data[i] = float32(float64(m.Data[i]) * c1 / denom)
		}
	} else {
		cols := p.W.Cols
		for r := 0; r < p.W.Rows; r++ {
			grow := p.Grad.Row(r)
			mrow := m.Row(r)
			drow := dir.Row(r)
			meanSq := float32(tensor.SqNormSlice(grow) / float64(cols))
			v[r] = b2*v[r] + (1-b2)*meanSq
			denom := math.Sqrt(float64(v[r])*c2) + eps
			for i, g := range grow {
				mrow[i] = b1*mrow[i] + (1-b1)*g
				drow[i] = float32(float64(mrow[i]) * c1 / denom)
			}
		}
	}
	DecayAndApply(p, dir, a.h.LR, a.h.WeightDecay)
}
