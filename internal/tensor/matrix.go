// Package tensor provides the dense float32 linear-algebra kernels used by
// every other package in this repository: matrices, vectors, a deterministic
// RNG, parallel blocked matrix multiplication and the elementwise/reduction
// kernels needed for transformer training and APOLLO-style optimizers.
//
// Matrices are row-major. The package is deliberately small and allocation
// conscious: optimizer inner loops call the *Into variants which write into
// caller-provided storage.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative matrix dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// NewMatrixRand fills a matrix with N(0, std²) entries drawn from rng.
func NewMatrixRand(rows, cols int, std float64, rng *RNG) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.Norm() * std)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view (no copy) of row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col copies column j into a new slice.
func (m *Matrix) Col(j int) []float32 {
	out := make([]float32, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src's contents into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero clears all elements.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Shape returns (rows, cols).
func (m *Matrix) Shape() (int, int) { return m.Rows, m.Cols }

// NumEl returns the element count.
func (m *Matrix) NumEl() int { return m.Rows * m.Cols }

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	TransposeInto(t, m)
	return t
}

// TransposeInto writes srcᵀ into dst, which must be src.Cols × src.Rows and
// distinct from src. It walks 32×32 blocks so both sides stay in cache.
func TransposeInto(dst, src *Matrix) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto %dx%d into %dx%d", src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	const blk = 32
	for ib := 0; ib < src.Rows; ib += blk {
		imax := min(ib+blk, src.Rows)
		for jb := 0; jb < src.Cols; jb += blk {
			jmax := min(jb+blk, src.Cols)
			for i := ib; i < imax; i++ {
				for j := jb; j < jmax; j++ {
					dst.Data[j*src.Rows+i] = src.Data[i*src.Cols+j]
				}
			}
		}
	}
}

// Equal reports whether two matrices have identical shape and elements.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] { //apollo:exactfloat bitwise equality is this method's contract
			return false
		}
	}
	return true
}

// AllClose reports whether every element differs by at most tol.
func (m *Matrix) AllClose(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(float64(v)-float64(o.Data[i])) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	if m.NumEl() > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

func (m *Matrix) mustSameShape(o *Matrix, op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}
