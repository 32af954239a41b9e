package tensor

import (
	"fmt"

	"apollo/internal/runtime"
)

// Parallel runs fn over disjoint index ranges covering [0, n) on the shared
// runtime worker pool when n is large enough (at least minPerTask items per
// task). It is the general-purpose fan-out used by the attention kernels and
// optimizer loops. fn must write only to data owned by its range, which
// makes the result bit-identical to fn(0, n) at any pool size.
func Parallel(n, minPerTask int, fn func(i0, i1 int)) {
	runtime.ForRange(n, minPerTask, fn)
}

// MatMul returns a·b.
func MatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a·b. out must be a.Rows × b.Cols and distinct
// from a and b.
func MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	runtime.MatMul(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
}

// Dot returns the inner product of equal-length slices.
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s0, s1, s2, s3 float32
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s0 += x[i] * y[i]
	}
	return s0 + s1 + s2 + s3
}

// MatMulT returns a·bᵀ without materializing the transpose.
func MatMulT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes out = a·bᵀ. a is r×k, b is c×k, out is r×c.
func MatMulTInto(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT inner dim mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	runtime.MatMulT(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Rows)
}

// TMatMul returns aᵀ·b without materializing the transpose.
func TMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	TMatMulInto(out, a, b)
	return out
}

// TMatMulInto computes out = aᵀ·b. a is k×r, b is k×c, out is r×c.
func TMatMulInto(out, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul inner dim mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: TMatMul out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, b.Cols))
	}
	// Parallelism is over output rows (columns of a) to avoid write
	// contention.
	runtime.TMatMul(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
}

// Add returns a+b elementwise.
func Add(a, b *Matrix) *Matrix {
	a.mustSameShape(b, "Add")
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// AddInPlace computes a += b, fanning out on the pool for large matrices
// (1·x is exact in IEEE arithmetic, so delegating to Axpy is bit-neutral).
func AddInPlace(a, b *Matrix) {
	a.mustSameShape(b, "AddInPlace")
	runtime.Axpy(1, b.Data, a.Data)
}

// AxpyInPlace computes a += alpha*b.
func AxpyInPlace(a *Matrix, alpha float32, b *Matrix) {
	a.mustSameShape(b, "AxpyInPlace")
	runtime.Axpy(alpha, b.Data, a.Data)
}

// Sub returns a-b elementwise.
func Sub(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, a.Cols)
	SubInto(out, a, b)
	return out
}

// SubInto computes out = a-b elementwise; out may alias a or b.
func SubInto(out, a, b *Matrix) {
	a.mustSameShape(b, "Sub")
	a.mustSameShape(out, "Sub")
	od, bd := out.Data, b.Data
	for i, v := range a.Data {
		od[i] = v - bd[i]
	}
}

// Scale returns alpha*a.
func Scale(alpha float32, a *Matrix) *Matrix {
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] *= alpha
	}
	return out
}

// ScaleInPlace computes a *= alpha, fanning out for large matrices.
func ScaleInPlace(a *Matrix, alpha float32) {
	runtime.Scale(a.Data, alpha)
}

// Hadamard returns the elementwise product a∘b.
func Hadamard(a, b *Matrix) *Matrix {
	a.mustSameShape(b, "Hadamard")
	out := a.Clone()
	HadamardInPlace(out, b)
	return out
}

// HadamardInPlace computes a ∘= b, fanning out for large matrices.
func HadamardInPlace(a, b *Matrix) {
	a.mustSameShape(b, "HadamardInPlace")
	Parallel(len(a.Data), 1<<14, func(i0, i1 int) {
		ad, bd := a.Data[i0:i1], b.Data[i0:i1]
		for i, v := range bd {
			ad[i] *= v
		}
	})
}

// ScaleColsInPlace multiplies column j of a by s[j].
func ScaleColsInPlace(a *Matrix, s []float32) {
	if len(s) != a.Cols {
		panic(fmt.Sprintf("tensor: ScaleCols got %d factors for %d cols", len(s), a.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, f := range s {
			row[j] *= f
		}
	}
}

// ScaleRowsInPlace multiplies row i of a by s[i].
func ScaleRowsInPlace(a *Matrix, s []float32) {
	if len(s) != a.Rows {
		panic(fmt.Sprintf("tensor: ScaleRows got %d factors for %d rows", len(s), a.Rows))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		ScaleSlice(row, s[i])
	}
}

// ScaleSlice multiplies every element of x by alpha.
func ScaleSlice(x []float32, alpha float32) {
	for i := range x {
		x[i] *= alpha
	}
}
