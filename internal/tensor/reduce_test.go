package tensor

import (
	"fmt"
	"math"
	"testing"

	"apollo/internal/runtime"
)

// TestReductionsWidthIndependent: Sum, SqNorm, ColNormsInto and SqNormSlice
// give the bits of an ascending-order reference at pool widths 1–4, on
// lengths below and above runtime.ParallelReduceMin. Below it a reduction
// is one serial pass in element order; from it on Sum and SqNorm add
// runtime.ReduceChunk-long partials, each in element order, in chunk order.
// ColNormsInto sums each column down its rows and SqNormSlice is serial at
// every length. The optimizers' width contract leans on these bits but
// reaches a serial path only where a member happens to call it on its test
// shapes, so the reductions are held here on their own.
func TestReductionsWidthIndependent(t *testing.T) {
	defer runtime.SetWorkers(runtime.Workers())
	const above = runtime.ParallelReduceMin
	rng := NewRNG(41)
	for _, shape := range [][2]int{
		{1, 1}, {7, 13}, {61, 997}, {1, above - 1}, // below
		{1, above}, {256, 256 + 3}, {3, above + runtime.ReduceChunk/2 + 1}, // above
	} {
		m := NewMatrix(shape[0], shape[1])
		for i := range m.Data {
			// Magnitudes over six decades, so that a different summation
			// order shows in the low bits.
			m.Data[i] = rng.NormFloat32() * float32(math.Pow(10, float64(rng.Intn(7)-3)))
		}
		n := len(m.Data)
		grid := n
		if n >= above {
			grid = runtime.ReduceChunk
		}
		wantSum := chunked(m.Data, grid, func(v float32) float64 { return float64(v) })
		wantSq := chunked(m.Data, grid, func(v float32) float64 { return float64(v) * float64(v) })
		wantSlice := chunked(m.Data, n, func(v float32) float64 { return float64(v) * float64(v) })
		wantCols := make([]float64, m.Cols)
		for j := range wantCols {
			var s float64
			for i := 0; i < m.Rows; i++ {
				v := float64(m.At(i, j))
				s += v * v
			}
			wantCols[j] = math.Sqrt(s)
		}
		cols := make([]float64, m.Cols)
		for width := 1; width <= 4; width++ {
			runtime.SetWorkers(width)
			name := fmt.Sprintf("%dx%d at width %d", m.Rows, m.Cols, width)
			same(t, name+": Sum", m.Sum(), wantSum)
			same(t, name+": SqNorm", m.SqNorm(), wantSq)
			same(t, name+": SqNormSlice", SqNormSlice(m.Data), wantSlice)
			m.ColNormsInto(cols)
			for j, v := range cols {
				same(t, fmt.Sprintf("%s: ColNormsInto[%d]", name, j), v, wantCols[j])
			}
		}
	}
}

// chunked sums f over x in grid-long partials, each in element order, added
// in chunk order.
func chunked(x []float32, grid int, f func(float32) float64) float64 {
	var total float64
	for lo := 0; lo < len(x); lo += grid {
		var part float64
		for _, v := range x[lo:min(lo+grid, len(x))] {
			part += f(v)
		}
		total += part
	}
	return total
}

func same(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v (%#x), reference %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}
