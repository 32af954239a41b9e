package tensor

import (
	"fmt"
	"math"

	"apollo/internal/runtime"
)

// Sum returns the sum of all elements (accumulated in float64 for accuracy).
// Large matrices reduce in parallel over the runtime package's fixed chunk
// grid, which keeps the bits independent of the worker count.
func (m *Matrix) Sum() float64 {
	if len(m.Data) >= runtime.ParallelReduceMin {
		return runtime.SumChunked(m.Data)
	}
	var s float64
	for _, v := range m.Data {
		s += float64(v)
	}
	return s
}

// AbsSum returns the ℓ1 norm of the flattened matrix.
func (m *Matrix) AbsSum() float64 {
	var s float64
	for _, v := range m.Data {
		s += math.Abs(float64(v))
	}
	return s
}

// SqNorm returns the squared Frobenius norm. Large matrices reduce in
// parallel over the fixed chunk grid (worker-count independent bits).
func (m *Matrix) SqNorm() float64 {
	if len(m.Data) >= runtime.ParallelReduceMin {
		return runtime.SqNormChunked(m.Data)
	}
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return s
}

// ReductionChunk returns the length of the partial sums Sum and SqNorm add up
// in order over n elements: the whole input while it reduces serially, the
// fixed chunk grid from ParallelReduceMin on. A loop that fuses a norm into
// other work reproduces SqNorm bit for bit by summing partials of this length.
func ReductionChunk(n int) int {
	if n >= runtime.ParallelReduceMin {
		return runtime.ReduceChunk
	}
	return n
}

// Norm returns the Frobenius norm.
func (m *Matrix) Norm() float64 { return math.Sqrt(m.SqNorm()) }

// Max returns the maximum element; -Inf for an empty matrix.
func (m *Matrix) Max() float32 {
	best := float32(math.Inf(-1))
	for _, v := range m.Data {
		if v > best {
			best = v
		}
	}
	return best
}

// ColNorms returns the per-column ℓ2 norms.
func (m *Matrix) ColNorms() []float64 {
	out := make([]float64, m.Cols)
	m.ColNormsInto(out)
	return out
}

// ColNormsInto writes the per-column ℓ2 norms into out (len m.Cols).
func (m *Matrix) ColNormsInto(out []float64) {
	if len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: ColNormsInto got %d slots for %d cols", len(out), m.Cols))
	}
	clear(out)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += float64(v) * float64(v)
		}
	}
	for j := range out {
		out[j] = math.Sqrt(out[j])
	}
}

// RowNorms returns the per-row ℓ2 norms.
func (m *Matrix) RowNorms() []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = math.Sqrt(SqNormSlice(m.Row(i)))
	}
	return out
}

// SqNormSlice returns Σ x².
func SqNormSlice(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return s
}

// NormSlice returns the ℓ2 norm of x.
func NormSlice(x []float32) float64 { return math.Sqrt(SqNormSlice(x)) }

// SoftmaxRowsInPlace applies a numerically stable softmax to each row.
func SoftmaxRowsInPlace(m *Matrix) {
	runtime.ForRange(m.Rows, 16, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			SoftmaxInPlace(m.Row(i))
		}
	})
}

// SoftmaxInPlace applies a numerically stable softmax to x.
func SoftmaxInPlace(x []float32) {
	if len(x) == 0 {
		return
	}
	mx := x[0]
	for _, v := range x[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range x {
		e := float32(math.Exp(float64(v - mx)))
		x[i] = e
		sum += float64(e)
	}
	inv := float32(1.0 / sum)
	for i := range x {
		x[i] *= inv
	}
}

// LogSumExp returns log Σ exp(x) computed stably.
func LogSumExp(x []float32) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	mx := float64(x[0])
	for _, v := range x[1:] {
		if float64(v) > mx {
			mx = float64(v)
		}
	}
	var s float64
	for _, v := range x {
		s += math.Exp(float64(v) - mx)
	}
	return mx + math.Log(s)
}

// ArgMax returns the index of the largest element of x (first on ties).
func ArgMax(x []float32) int {
	if len(x) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Mean returns the arithmetic mean of all elements.
func (m *Matrix) Mean() float64 {
	if m.NumEl() == 0 {
		return 0
	}
	return m.Sum() / float64(m.NumEl())
}

// HasNaN reports whether any element is NaN or ±Inf.
func (m *Matrix) HasNaN() bool {
	for _, v := range m.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}
