// Package quant implements group-wise INT8 absmax quantization for weights
// and optimizer states, the storage format behind the paper's 8-bit Adam /
// 8-bit GaLore baselines (Table 3) and the Q-APOLLO / Q-GaLore variants
// (Table 8, Fig. 1 middle). Values are stored as int8 codes plus one float32
// scale per group; stochastic rounding keeps the quantization error unbiased
// so that training still converges.
package quant

import (
	"fmt"
	"math"

	"apollo/internal/tensor"
)

// DefaultGroupSize is the quantization group used throughout the paper's
// INT8 experiments.
const DefaultGroupSize = 128

// Tensor8 is an INT8-quantized tensor: codes in [-127, 127] with one
// float32 absmax scale per group of GroupSize consecutive values.
type Tensor8 struct {
	Rows, Cols int
	GroupSize  int
	Codes      []int8
	Scales     []float32
}

// NewTensor8 allocates a zeroed quantized tensor.
func NewTensor8(rows, cols, groupSize int) *Tensor8 {
	if groupSize <= 0 {
		panic(fmt.Sprintf("quant: group size %d", groupSize))
	}
	n := rows * cols
	groups := (n + groupSize - 1) / groupSize
	return &Tensor8{
		Rows: rows, Cols: cols, GroupSize: groupSize,
		Codes:  make([]int8, n),
		Scales: make([]float32, groups),
	}
}

// Quantize encodes m into q with stochastic rounding (required when the
// tensor is an optimizer state that accumulates small updates): element e
// rounds up with probability equal to its fractional code, against
// tensor.Uniform(key, e). The noise depends on key and e alone, so a caller
// that keys it by what the tensor is draws the same codes in any order.
func Quantize(q *Tensor8, m *tensor.Matrix, key uint64) { quantize(q, m, key, true) }

// QuantizeNearest encodes m into q with round-to-nearest.
func QuantizeNearest(q *Tensor8, m *tensor.Matrix) { quantize(q, m, 0, false) }

func quantize(q *Tensor8, m *tensor.Matrix, key uint64, stochastic bool) {
	if q.Rows != m.Rows || q.Cols != m.Cols {
		panic(fmt.Sprintf("quant: shape mismatch %dx%d vs %dx%d", q.Rows, q.Cols, m.Rows, m.Cols))
	}
	n := len(m.Data)
	for g := 0; g*q.GroupSize < n; g++ {
		lo := g * q.GroupSize
		hi := min(lo+q.GroupSize, n)
		var absmax float32
		for _, v := range m.Data[lo:hi] {
			a := v
			if a < 0 {
				a = -a
			}
			if a > absmax {
				absmax = a
			}
		}
		if absmax == 0 { //apollo:exactfloat exact max of magnitudes; zero means the group is all zeros
			q.Scales[g] = 0
			for i := lo; i < hi; i++ {
				q.Codes[i] = 0
			}
			continue
		}
		scale := absmax / 127
		q.Scales[g] = scale
		inv := 1 / scale
		for i := lo; i < hi; i++ {
			x := float64(m.Data[i] * inv)
			var code int
			if stochastic {
				floor := math.Floor(x)
				frac := x - floor
				code = int(floor)
				if tensor.Uniform(key, i) < frac {
					code++
				}
			} else {
				code = int(math.Round(x))
			}
			if code > 127 {
				code = 127
			}
			if code < -127 {
				code = -127
			}
			q.Codes[i] = int8(code)
		}
	}
}

// Dequantize decodes q into out (allocating if out is nil) and returns it.
func Dequantize(q *Tensor8, out *tensor.Matrix) *tensor.Matrix {
	if out == nil {
		out = tensor.NewMatrix(q.Rows, q.Cols)
	}
	if out.Rows != q.Rows || out.Cols != q.Cols {
		panic("quant: dequantize shape mismatch")
	}
	for g := 0; g*q.GroupSize < len(q.Codes); g++ {
		lo := g * q.GroupSize
		hi := min(lo+q.GroupSize, len(q.Codes))
		s := q.Scales[g]
		for i := lo; i < hi; i++ {
			out.Data[i] = float32(q.Codes[i]) * s
		}
	}
	return out
}

// Bytes returns the resident size of the quantized tensor: one byte per
// code plus four per group scale.
func (q *Tensor8) Bytes() int64 {
	return int64(len(q.Codes)) + 4*int64(len(q.Scales))
}

// QuantError returns the relative Frobenius error between m and its
// round-trip through INT8. Used by tests and by the memory/quality tables.
func QuantError(m *tensor.Matrix, groupSize int) float64 {
	q := NewTensor8(m.Rows, m.Cols, groupSize)
	QuantizeNearest(q, m)
	back := Dequantize(q, nil)
	diff := tensor.Sub(back, m)
	denom := m.Norm()
	if denom == 0 { //apollo:exactfloat guard against division by an exact-zero norm
		return 0
	}
	return diff.Norm() / denom
}

// QuantizedWeight keeps a weight matrix in INT8 between steps and exposes a
// float32 working copy for forward/backward — the Q-GaLore / Q-APOLLO weight
// path. Its rounding noise is keyed by the weight's own key and its store
// count, never by which other weights were stored before it.
type QuantizedWeight struct {
	Q *Tensor8
	// Draws counts the stochastic stores so far: the persistent cursor.
	Draws uint64
	key   uint64
}

// NewQuantizedWeight encodes w round-to-nearest as the initial state of the
// weight keyed by key.
func NewQuantizedWeight(w *tensor.Matrix, groupSize int, key uint64) *QuantizedWeight {
	qw := &QuantizedWeight{Q: NewTensor8(w.Rows, w.Cols, groupSize), key: key}
	QuantizeNearest(qw.Q, w)
	return qw
}

// Materialize decodes the current weight into out (or a new matrix).
func (qw *QuantizedWeight) Materialize(out *tensor.Matrix) *tensor.Matrix {
	return Dequantize(qw.Q, out)
}

// Store re-encodes w as the weight with stochastic rounding, keyed
// tensor.Mix(key, "", Draws).
func (qw *QuantizedWeight) Store(w *tensor.Matrix) {
	Quantize(qw.Q, w, tensor.Mix(qw.key, "", qw.Draws))
	qw.Draws++
}

// Bytes returns the resident byte count.
func (qw *QuantizedWeight) Bytes() int64 { return qw.Q.Bytes() }
