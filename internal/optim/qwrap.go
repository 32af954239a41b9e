package optim

import (
	"apollo/internal/nn"
	"apollo/internal/quant"
	"apollo/internal/tensor"
)

// WeightQuantized wraps any optimizer with INT8 master weights: after each
// inner step, matrix weights are re-encoded into group-wise INT8 with
// stochastic rounding and decoded back, so the resident master copy is one
// byte per element (the Q-GaLore / Q-APOLLO weight path of Table 8). Updates
// smaller than one quantization step survive in expectation through the
// stochastic rounding, which for parameter p is keyed tensor.Mix(seed, p.Name)
// and its weight's store count.
type WeightQuantized struct {
	inner Optimizer
	seed  uint64
	qw    map[*nn.Param]*quant.QuantizedWeight
}

// NewWeightQuantized wraps inner with the paper's group size of 128.
func NewWeightQuantized(inner Optimizer, seed uint64) *WeightQuantized {
	return &WeightQuantized{inner: inner, seed: seed, qw: map[*nn.Param]*quant.QuantizedWeight{}}
}

// Name implements Optimizer.
func (w *WeightQuantized) Name() string { return "Q-" + w.inner.Name() }

// SetLR implements Optimizer.
func (w *WeightQuantized) SetLR(lr float64) { w.inner.SetLR(lr) }

// LR implements Optimizer.
func (w *WeightQuantized) LR() float64 { return w.inner.LR() }

// Step implements Optimizer: inner update, then round-trip matrix weights
// through INT8 storage.
func (w *WeightQuantized) Step(ps []*nn.Param) {
	w.inner.Step(ps)
	for _, p := range ps {
		if p.Kind == nn.KindVector {
			continue // norm gains stay fp (negligible memory)
		}
		q, ok := w.qw[p]
		if !ok {
			q = w.newWeight(p)
			w.qw[p] = q
		} else {
			q.Store(p.W)
		}
		q.Materialize(p.W)
	}
}

// newWeight encodes p's weight as the first state of its quantized copy.
func (w *WeightQuantized) newWeight(p *nn.Param) *quant.QuantizedWeight {
	return quant.NewQuantizedWeight(p.W, quant.DefaultGroupSize, tensor.Mix(w.seed, p.Name))
}

// StateBytes implements Optimizer (inner states only; the INT8 weight
// footprint is reported by the memory model as a weight cost, not an
// optimizer state).
func (w *WeightQuantized) StateBytes() int64 { return w.inner.StateBytes() }

// StateElemsFor, StateBytesFor and RowSplittable implement StateIntrospector:
// the state is the inner optimizer's, but ownership is never cut along rows,
// because INT8 groups straddle row boundaries.
func (w *WeightQuantized) StateElemsFor(p *nn.Param) int64 {
	if si, ok := w.inner.(StateIntrospector); ok {
		return si.StateElemsFor(p)
	}
	return 0
}

func (w *WeightQuantized) StateBytesFor(p *nn.Param) int64 {
	if si, ok := w.inner.(StateIntrospector); ok {
		return si.StateBytesFor(p)
	}
	return 0
}

func (w *WeightQuantized) RowSplittable(*nn.Param) bool { return false }

// WeightBytes reports the resident INT8 master-weight footprint.
func (w *WeightQuantized) WeightBytes() int64 {
	var total int64
	for _, q := range w.qw { //apollo:orderfree exact integer sum; iteration order cannot reach the result
		total += q.Bytes()
	}
	return total
}
