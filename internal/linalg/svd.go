// Package linalg provides the decompositions and projection operators used by
// low-rank optimizers: a one-sided Jacobi SVD (the expensive path taken by
// GaLore/Fira and "APOLLO w. SVD") and seeded Gaussian random projections (the
// cheap path that APOLLO defaults to). It also exposes FLOP-cost estimates for
// both, which the cluster simulator uses to model throughput spikes.
package linalg

import (
	"fmt"
	"math"

	"apollo/internal/tensor"
)

// SVDResult holds a thin singular value decomposition A = U·diag(S)·Vᵀ where
// A is m×n, U is m×k, V is n×k and S has k = min(m, n) entries sorted in
// descending order.
type SVDResult struct {
	U *tensor.Matrix
	S []float64
	V *tensor.Matrix
}

// svdMaxSweeps bounds the Jacobi iteration count; convergence is usually
// reached in far fewer sweeps for the gradient matrices seen in training.
const svdMaxSweeps = 60

// SVD computes a thin SVD of a via one-sided Jacobi rotations. One-sided
// Jacobi orthogonalizes the columns of a working copy of A; the column norms
// become singular values, the normalized columns become U, and the
// accumulated rotations give V. For m < n the decomposition is computed on
// Aᵀ and the factors are swapped.
func SVD(a *tensor.Matrix) SVDResult {
	if a.Rows < a.Cols {
		r := SVD(a.T())
		return SVDResult{U: r.V, S: r.S, V: r.U}
	}
	m, n := a.Rows, a.Cols
	// Work on column-major copies for cache-friendly column rotations.
	w := make([][]float64, n) // columns of working copy of A
	for j := 0; j < n; j++ {
		col := make([]float64, m)
		for i := 0; i < m; i++ {
			col[i] = float64(a.At(i, j))
		}
		w[j] = col
	}
	v := make([][]float64, n) // columns of V
	for j := 0; j < n; j++ {
		col := make([]float64, n)
		col[j] = 1
		v[j] = col
	}

	const eps = 1e-12
	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				alpha := dot64(w[p], w[p])
				beta := dot64(w[q], w[q])
				gamma := dot64(w[p], w[q])
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta)+1e-300 {
					continue
				}
				off += math.Abs(gamma)
				// Jacobi rotation zeroing the (p,q) off-diagonal of AᵀA.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				rotate(w[p], w[q], c, s)
				rotate(v[p], v[q], c, s)
			}
		}
		if off < eps {
			break
		}
	}

	// Singular values are the column norms; sort descending.
	type col struct {
		norm float64
		idx  int
	}
	cols := make([]col, n)
	for j := 0; j < n; j++ {
		cols[j] = col{math.Sqrt(dot64(w[j], w[j])), j}
	}
	// Insertion sort (n is small: rank dims).
	for i := 1; i < n; i++ {
		cj := cols[i]
		k := i - 1
		for k >= 0 && cols[k].norm < cj.norm {
			cols[k+1] = cols[k]
			k--
		}
		cols[k+1] = cj
	}

	u := tensor.NewMatrix(m, n)
	vt := tensor.NewMatrix(n, n)
	s := make([]float64, n)
	for rank, cj := range cols {
		s[rank] = cj.norm
		src := w[cj.idx]
		inv := 0.0
		if cj.norm > 1e-300 {
			inv = 1 / cj.norm
		}
		for i := 0; i < m; i++ {
			u.Set(i, rank, float32(src[i]*inv))
		}
		vcol := v[cj.idx]
		for i := 0; i < n; i++ {
			vt.Set(i, rank, float32(vcol[i]))
		}
	}
	return SVDResult{U: u, S: s, V: vt}
}

func dot64(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

func rotate(x, y []float64, c, s float64) {
	for i := range x {
		xi, yi := x[i], y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// TopKLeft returns the first k left singular vectors as a k×m projection
// matrix P (rows are singular vectors), so that R = P·G projects gradients
// into the dominant subspace. This mirrors GaLore's use of torch.svd.
func TopKLeft(a *tensor.Matrix, k int) *tensor.Matrix {
	if k <= 0 || k > min(a.Rows, a.Cols) {
		panic(fmt.Sprintf("linalg: TopKLeft rank %d out of range for %dx%d", k, a.Rows, a.Cols))
	}
	res := SVD(a)
	p := tensor.NewMatrix(k, a.Rows)
	for r := 0; r < k; r++ {
		for i := 0; i < a.Rows; i++ {
			p.Set(r, i, res.U.At(i, r))
		}
	}
	return p
}

// Reconstruct multiplies the thin factors back together (testing aid).
func (r SVDResult) Reconstruct() *tensor.Matrix {
	k := len(r.S)
	us := r.U.Clone()
	for i := 0; i < us.Rows; i++ {
		row := us.Row(i)
		for j := 0; j < k; j++ {
			row[j] *= float32(r.S[j])
		}
	}
	return tensor.MatMulT(us, r.V)
}

// SVDFlops estimates the floating-point cost of a full SVD of an m×n matrix,
// O(m·n·min(m,n)) with the classical constant. The cluster simulator uses
// this to model GaLore's projection-update spikes.
func SVDFlops(m, n int) float64 {
	mn := math.Min(float64(m), float64(n))
	return 4 * float64(m) * float64(n) * mn
}
