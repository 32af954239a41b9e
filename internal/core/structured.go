package core

import (
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// StructuredAdamW is the Section 3 construction used to establish that
// coarse learning-rate adaptation suffices: it maintains *full* AdamW
// moments but collapses the element-wise scaling S = ˜G/G into a channel- or
// tensor-wise factor s_j = ‖˜G[:,j]‖/‖G[:,j]‖ before applying it to the raw
// gradient. It saves no memory — it exists to isolate the effect of
// structuring the update (Fig. 3 and the Fig. 4 "golden" reference).
type StructuredAdamW struct {
	h           optim.Hyper
	Granularity Granularity
	// Gamma is the norm-growth limiter threshold; 0 disables the limiter
	// (the "w/o NL" curve in Fig. 3).
	Gamma float64

	// ScalingProbe, when non-nil, receives the per-channel scaling factors
	// of every matrix parameter each step (Fig. 4 instrumentation).
	ScalingProbe func(param string, s []float64)

	states map[*nn.Param]*structState
	dense  *optim.AdamW
}

type structState struct {
	m, v     *tensor.Matrix
	t        int
	prevNorm float64
}

// NewStructuredAdamW builds the optimizer with the limiter enabled.
func NewStructuredAdamW(h optim.Hyper, g Granularity) *StructuredAdamW {
	return &StructuredAdamW{
		h:           h.WithDefaults(),
		Granularity: g,
		Gamma:       DefaultGamma,
		states:      map[*nn.Param]*structState{},
		dense:       optim.NewAdamW(h),
	}
}

// Name implements optim.Optimizer.
func (s *StructuredAdamW) Name() string {
	return "StructuredAdamW-" + s.Granularity.String()
}

// SetLR implements optim.Optimizer.
func (s *StructuredAdamW) SetLR(lr float64) {
	s.h.LR = lr
	s.dense.SetLR(lr)
}

// LR implements optim.Optimizer.
func (s *StructuredAdamW) LR() float64 { return s.h.LR }

// Step implements optim.Optimizer.
func (s *StructuredAdamW) Step(ps []*nn.Param) {
	var fallback []*nn.Param
	for _, p := range ps {
		if p.Kind != nn.KindMatrix {
			fallback = append(fallback, p)
			continue
		}
		st, ok := s.states[p]
		if !ok {
			st = &structState{
				m: tensor.NewMatrix(p.W.Rows, p.W.Cols),
				v: tensor.NewMatrix(p.W.Rows, p.W.Cols),
			}
			s.states[p] = st
		}
		st.t++
		// Full AdamW moments → element-wise normalized direction ˜G.
		gt := tensor.NewMatrix(p.W.Rows, p.W.Cols)
		optim.AdamDirection(st.m, st.v, gt, p.Grad, s.h, st.t)

		// Collapse to the structured factor and rescale the raw gradient.
		update := p.Grad.Clone()
		oriented := update
		gtOriented := gt
		transposed := p.W.Rows > p.W.Cols
		if transposed {
			oriented = update.T()
			gtOriented = gt.T()
		}
		scales := channelScales(gtOriented, oriented)
		switch s.Granularity {
		case Channel:
			applyChannelScales(oriented, scales)
		case Tensor:
			f := tensorScale(gtOriented, oriented)
			tensor.ScaleInPlace(oriented, float32(f))
		}
		if transposed {
			update = oriented.T()
		} else {
			update = oriented
		}
		if s.ScalingProbe != nil {
			s.ScalingProbe(p.Name, scales)
		}
		if s.Gamma > 0 {
			st.prevNorm = LimitNormGrowth(update, st.prevNorm, s.Gamma)
		}
		optim.DecayAndApply(p, update, s.h.LR, s.h.WeightDecay)
	}
	if len(fallback) > 0 {
		s.dense.Step(fallback)
	}
}

// StateBytes implements optim.Optimizer — deliberately the same cost as
// AdamW, since this variant is about structure, not memory.
func (s *StructuredAdamW) StateBytes() int64 {
	total := s.dense.StateBytes()
	for _, st := range s.states {
		total += 4 * int64(st.m.NumEl()+st.v.NumEl())
		total += 4
	}
	return total
}

// channelScales returns s_j = ‖num[:,j]‖ / ‖den[:,j]‖ for every column j of
// the m×n-oriented pair.
func channelScales(num, den *tensor.Matrix) []float64 {
	nn := num.ColNorms()
	dn := den.ColNorms()
	out := make([]float64, len(nn))
	for j := range out {
		if dn[j] > 1e-12 {
			out[j] = nn[j] / dn[j]
		}
	}
	return out
}

// tensorScale returns ‖num‖ / ‖den‖.
func tensorScale(num, den *tensor.Matrix) float64 {
	d := den.Norm()
	if d < 1e-12 {
		return 0
	}
	return num.Norm() / d
}

func applyChannelScales(g *tensor.Matrix, s []float64) {
	fs := make([]float32, len(s))
	for i, v := range s {
		fs[i] = float32(v)
	}
	tensor.ScaleColsInPlace(g, fs)
}
