package core

import (
	"math"

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
	optim.Base  // everything that is not a matrix is its dense AdamW's
	Granularity Granularity
	// Gamma is the norm-growth limiter threshold; 0 disables the limiter
	// (the "w/o NL" curve in Fig. 3).
	Gamma float64

	// ScalingProbe, when non-nil, receives the per-channel scaling factors
	// of every matrix parameter each step (Fig. 4 instrumentation), called
	// as APOLLO's is.
	ScalingProbe func(param string, s []float64)
	probes       probeQueue
}

// Scalar and slot indices of the StructuredAdamW declaration.
const (
	structT, structPrevNorm = 0, 1 // step count; limiter memory as float64 bits
	structM, structV        = 0, 1
)

// NewStructuredAdamW builds the optimizer with the limiter enabled. Canonical
// layout of a matrix parameter: Scalars [t, prevNorm bits]; RowMats [m, v] —
// deliberately the same cost as AdamW, since this variant is about structure,
// not memory. The moments are row-aligned but the update is not
// row-splittable: a channel norm runs across rows.
func NewStructuredAdamW(h optim.Hyper, g Granularity) *StructuredAdamW {
	sc := optim.Schema{
		Name:    "StructuredAdamW-" + g.String(),
		Scalars: []optim.Scalar{{Name: "t"}, {Name: "prevNorm", Counted: true}},
		Slots:   []optim.Slot{{Name: "m", Kind: optim.RowAligned}, {Name: "v", Kind: optim.RowAligned}},
		Covers:  func(p *nn.Param) bool { return p.Kind == nn.KindMatrix },
	}
	return &StructuredAdamW{Base: optim.NewBase(sc, h, optim.NewAdamW(h)), Granularity: g, Gamma: DefaultGamma}
}

// Step implements optim.Optimizer.
func (s *StructuredAdamW) Step(ps []*nn.Param) {
	s.Walk(ps, s.update)
	s.probes.deliver(ps, s.ScalingProbe)
}

func (s *StructuredAdamW) update(p *nn.Param, st *optim.Entry, _ bool, ws *optim.Workspace) {
	h := s.Hyper()
	// Full AdamW moments → element-wise normalized direction ˜G.
	gt := ws.Direction(p)
	st.Adam(structT, structM, structV, gt, p.Grad, h)

	// Collapse to one factor per channel of the m×n orientation: the
	// columns, or for a parameter stored n×m the rows (whose norms are
	// the column norms of the transpose, bit for bit).
	scales, den := gt.ColNorms(), p.Grad.ColNorms()
	if p.W.Rows > p.W.Cols {
		scales, den = gt.RowNorms(), p.Grad.RowNorms()
	}
	channelRatios(scales, den)
	_, _, factors := ws.Channels(len(scales))
	switch s.Granularity {
	case Channel:
		for j, f := range scales {
			factors[j] = float32(f)
		}
	case Tensor:
		f := tensorScale(math.Sqrt(orientedSqNorm(gt)), math.Sqrt(orientedSqNorm(p.Grad)))
		for j := range factors {
			factors[j] = float32(f)
		}
	}
	if s.ScalingProbe != nil {
		s.probes.put(p, scales)
	}

	// Rescale the raw gradient, limit its growth, apply.
	if s.Gamma > 0 {
		prevNorm := optim.F64From(st.S[structPrevNorm])
		optim.ApplyScaledGrad(p, factors, 1, h.LR, h.WeightDecay, s.Gamma, &prevNorm)
		st.S[structPrevNorm] = optim.F64Bits(prevNorm)
	} else {
		optim.ApplyScaledGrad(p, factors, 1, h.LR, h.WeightDecay, s.Gamma, nil)
	}
}

// channelRatios overwrites num[j] with s_j = num[j] / den[j], the ratio of
// two channel norms, and with 0 where the denominator vanishes.
func channelRatios(num, den []float64) {
	for j, d := range den {
		if d > 1e-12 {
			num[j] /= d
		} else {
			num[j] = 0
		}
	}
}

// tensorScale returns num / den, the ratio of two tensor norms, and 0 where
// the denominator vanishes.
func tensorScale(num, den float64) float64 {
	if den < 1e-12 {
		return 0
	}
	return num / den
}

// orientedSqNorm returns the SqNorm of x's m×n orientation — of xᵀ when x is
// stored n×m — without building it: the same elements in the same flat order
// over the same partials.
func orientedSqNorm(x *tensor.Matrix) float64 {
	if x.Rows <= x.Cols {
		return x.SqNorm()
	}
	n := len(x.Data)
	chunk := tensor.ReductionChunk(n)
	var total float64
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		var part float64
		i, j := lo%x.Rows, lo/x.Rows // xᵀ[j][i] = x[i][j]
		for k := lo; k < hi; k++ {
			v := x.Data[i*x.Cols+j]
			part += float64(v) * float64(v)
			if i++; i == x.Rows {
				i, j = 0, j+1
			}
		}
		total += part
	}
	return total
}
