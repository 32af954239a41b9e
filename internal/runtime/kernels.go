package runtime

// Register-blocked multi-goroutine kernels for the hot dense ops. All
// matrices are row-major float32 slices with explicit dimensions so this
// package depends on nothing above it; internal/tensor dispatches here.
//
// Bit-identity: blocking and tiling only choose which output elements are
// worked on together, never the order in which one element is accumulated.
// That per-element order is each kernel's contract (kernels_test.go holds
// the kernels to independent references of it, bit for bit, at every worker
// count):
//
//   - MatMul, out[i][j] = Σ_p a[i][p]·b[p][j]: starts at 0 and adds the
//     products one at a time in ascending p, skipping every p whose a[i][p]
//     is exactly zero (so a zero never meets a non-finite b).
//   - TMatMul, out[r][j] = Σ_p a[p][r]·b[p][j]: the same, with the skip on
//     a[p][r].
//   - MatMulT, out[i][j] = Σ_p a[i][p]·b[j][p]: four interleaved lanes, lane
//     l summing p ≡ l (mod 4) in ascending p over the first k−k%4 indices,
//     the k%4 tail indices then added to lane 0 in ascending p, and the
//     lanes combined as ((s0+s1)+s2)+s3. No zero skip.

const (
	// matmulParallelFlops is the multiply-add count above which the matmul
	// kernels fan out to the pool; below it goroutine hand-off costs more
	// than the work.
	matmulParallelFlops = 64 * 1024
	// ReduceChunk is the fixed reduction grid: partial sums are computed per
	// chunk and combined in chunk order, making the result independent of
	// worker count. The grid depends only on the input length.
	ReduceChunk = 8192
	// ParallelReduceMin is the input length above which the chunked parallel
	// reductions are worth dispatching.
	ParallelReduceMin = 1 << 16
)

// matmulGrain returns the row grain keeping at least matmulParallelFlops of
// work per task for rows costing rowFlops each.
func matmulGrain(rowFlops int) int {
	if rowFlops <= 0 {
		return 1
	}
	g := matmulParallelFlops / rowFlops
	if g < 1 {
		g = 1
	}
	return g
}

// MatMul computes out = a·b with a m×k, b k×n, out m×n (out is fully
// overwritten). Splits rows across the pool above the size threshold;
// bit-identical to MatMulSerial.
func MatMul(out, a, b []float32, m, k, n int) {
	if m*k*n < matmulParallelFlops {
		matmulRows(out, a, b, k, n, 0, m)
		return
	}
	ForRange(m, matmulGrain(k*n), func(i0, i1 int) {
		matmulRows(out, a, b, k, n, i0, i1)
	})
}

// MatMulSerial is the single-goroutine reference for MatMul.
func MatMulSerial(out, a, b []float32, m, k, n int) {
	matmulRows(out, a, b, k, n, 0, m)
}

// matmulRows computes output rows [i0, i1): each row is cleared and then
// takes the k inner steps four at a time, one pass over the row per group.
func matmulRows(out, a, b []float32, k, n, i0, i1 int) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		clear(orow)
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy4(arow[p], arow[p+1], arow[p+2], arow[p+3], b[p*n:(p+4)*n], orow)
		}
		for ; p < k; p++ {
			axpySkipZero(arow[p], b[p*n:(p+1)*n], orow)
		}
	}
}

// MatMulT computes out = a·bᵀ with a m×k, b n×k, out m×n, without
// materializing the transpose. Bit-identical to MatMulTSerial.
func MatMulT(out, a, b []float32, m, k, n int) {
	if m*k*n < matmulParallelFlops {
		matmulTRows(out, a, b, k, n, 0, m)
		return
	}
	ForRange(m, matmulGrain(k*n), func(i0, i1 int) {
		matmulTRows(out, a, b, k, n, i0, i1)
	})
}

// MatMulTSerial is the single-goroutine reference for MatMulT.
func MatMulTSerial(out, a, b []float32, m, k, n int) {
	matmulTRows(out, a, b, k, n, 0, m)
}

// matmulTRows computes output rows [i0, i1), two outputs per pass over the
// shared a row.
func matmulTRows(out, a, b []float32, k, n, i0, i1 int) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		j := 0
		for ; j+2 <= n; j += 2 {
			orow[j], orow[j+1] = dot2(arow, b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k])
		}
		if j < n {
			orow[j] = dot(arow, b[j*k:(j+1)*k])
		}
	}
}

// TMatMul computes out = aᵀ·b with a k×m, b k×n, out m×n, without
// materializing the transpose. Parallelism is over output rows (columns of
// a) so no two tasks write the same element. Bit-identical to
// TMatMulSerial.
func TMatMul(out, a, b []float32, k, m, n int) {
	if m*k*n < matmulParallelFlops {
		tmatmulRows(out, a, b, k, m, n, 0, m)
		return
	}
	ForRange(m, matmulGrain(k*n), func(r0, r1 int) {
		tmatmulRows(out, a, b, k, m, n, r0, r1)
	})
}

// TMatMulSerial is the single-goroutine reference for TMatMul.
func TMatMulSerial(out, a, b []float32, k, m, n int) {
	tmatmulRows(out, a, b, k, m, n, 0, m)
}

// tmatmulRows computes output rows [r0, r1). The groups of four inner steps
// run outermost, so the four b rows of a group stay in L1 while every
// output row takes them.
func tmatmulRows(out, a, b []float32, k, m, n, r0, r1 int) {
	clear(out[r0*n : r1*n])
	p := 0
	for ; p+4 <= k; p += 4 {
		a0, a1, a2, a3 := a[p*m:(p+1)*m], a[(p+1)*m:(p+2)*m], a[(p+2)*m:(p+3)*m], a[(p+3)*m:(p+4)*m]
		bg := b[p*n : (p+4)*n]
		for r := r0; r < r1; r++ {
			axpy4(a0[r], a1[r], a2[r], a3[r], bg, out[r*n:(r+1)*n])
		}
	}
	for ; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for r := r0; r < r1; r++ {
			axpySkipZero(arow[r], brow, out[r*n:(r+1)*n])
		}
	}
}

// elementwiseGrain is the least work per task of the elementwise kernels;
// a slice shorter than two of them runs inline, without building the closure
// a fan-out needs.
const elementwiseGrain = 1 << 14

// Axpy computes y += alpha·x across the pool for large slices. Disjoint
// ranges make any grid bit-identical to the serial loop.
func Axpy(alpha float32, x, y []float32) {
	if len(x) < 2*elementwiseGrain {
		axpy(alpha, x, y[:len(x)])
		return
	}
	ForRange(len(x), elementwiseGrain, func(i0, i1 int) {
		axpy(alpha, x[i0:i1], y[i0:i1])
	})
}

// Scale computes x *= alpha across the pool for large slices.
func Scale(x []float32, alpha float32) {
	if len(x) < 2*elementwiseGrain {
		scale(x, alpha)
		return
	}
	ForRange(len(x), elementwiseGrain, func(i0, i1 int) {
		scale(x[i0:i1], alpha)
	})
}

func scale(x []float32, alpha float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// SumChunked returns Σ x accumulated in float64 over the fixed reduction
// grid: chunk partials (serial within a chunk) combined in chunk order. The
// grid depends only on len(x), so the result is bit-identical at any worker
// count.
func SumChunked(x []float32) float64 {
	return reduceChunked(x, func(c []float32) float64 {
		var s float64
		for _, v := range c {
			s += float64(v)
		}
		return s
	})
}

// SqNormChunked returns Σ x² with the same fixed-grid determinism as
// SumChunked.
func SqNormChunked(x []float32) float64 {
	return reduceChunked(x, func(c []float32) float64 {
		var s float64
		for _, v := range c {
			s += float64(v) * float64(v)
		}
		return s
	})
}

func reduceChunked(x []float32, chunkSum func([]float32) float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	chunks := (n + ReduceChunk - 1) / ReduceChunk
	if chunks == 1 {
		return chunkSum(x)
	}
	partials := make([]float64, chunks)
	ForRange(chunks, 1, func(c0, c1 int) {
		for c := c0; c < c1; c++ {
			lo := c * ReduceChunk
			hi := lo + ReduceChunk
			if hi > n {
				hi = n
			}
			partials[c] = chunkSum(x[lo:hi])
		}
	})
	var s float64
	for _, p := range partials {
		s += p
	}
	return s
}

// axpy4 takes four consecutive inner steps in one pass over y:
// y[j] = (((y[j] + a0·x0[j]) + a1·x1[j]) + a2·x2[j]) + a3·x3[j], where x
// holds the four rows x0..x3 back to back, each len(y) long. Every y[j] is
// loaded and stored once for four multiply-adds, in the order four
// single-step axpy calls would have used. If any multiplier is exactly zero
// the group falls back to those four calls, which skip it.
func axpy4(a0, a1, a2, a3 float32, x, y []float32) {
	n := len(y)
	if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 { //apollo:exactfloat exact-zero multipliers keep the single-step skip so 0·Inf never enters a sum
		axpySkipZero(a0, x[:n], y)
		axpySkipZero(a1, x[n:2*n], y)
		axpySkipZero(a2, x[2*n:3*n], y)
		axpySkipZero(a3, x[3*n:4*n], y)
		return
	}
	x0, x1, x2, x3 := x[:n], x[n : 2*n][:n], x[2*n : 3*n][:n], x[3*n : 4*n][:n]
	for j := range y {
		y[j] = (((y[j] + a0*x0[j]) + a1*x1[j]) + a2*x2[j]) + a3*x3[j]
	}
}

// axpySkipZero is axpy with the matmul kernels' exact-zero skip.
func axpySkipZero(a float32, x, y []float32) {
	if a == 0 { //apollo:exactfloat exact-zero skip is bit-identical to the dense multiply on finite inputs and is the contract on non-finite ones
		return
	}
	axpy(a, x, y)
}

// axpy computes y += a·x.
func axpy(a float32, x, y []float32) {
	x = x[:len(y)]
	for i := range y {
		y[i] += a * x[i]
	}
}

// dot returns the inner product with the same 4-lane accumulation order as
// tensor.Dot so dispatching there is bit-transparent.
func dot(x, y []float32) float32 {
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

// dot2 returns dot(x, y) and dot(x, z) from one pass over x, each with
// dot's lane order. Eight accumulators fit the register file; sixteen (four
// outputs per pass) spill and measure slower than these eight.
func dot2(x, y, z []float32) (float32, float32) {
	var s0, s1, s2, s3, t0, t1, t2, t3 float32
	n := len(x)
	y, z = y[:n], z[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		t0 += x[i] * z[i]
		s1 += x[i+1] * y[i+1]
		t1 += x[i+1] * z[i+1]
		s2 += x[i+2] * y[i+2]
		t2 += x[i+2] * z[i+2]
		s3 += x[i+3] * y[i+3]
		t3 += x[i+3] * z[i+3]
	}
	for ; i < n; i++ {
		s0 += x[i] * y[i]
		t0 += x[i] * z[i]
	}
	return s0 + s1 + s2 + s3, t0 + t1 + t2 + t3
}
