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
//     lanes combined as ((s0+s1)+s2)+s3. No zero skip. The kernel realises
//     it without dot products: the operand with fewer rows is transposed
//     with its rows in lane order, and each lane is an accumulator row that
//     a whole output row (or column) takes one step at a time, four steps
//     per pass as in MatMul, before the four rows are combined.

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

// MatMulT computes out = a·bᵀ with a m×k, b n×k, out m×n. It allocates
// the transpose it sweeps; MatMulTWith takes the caller's. Bit-identical to
// MatMulTSerial.
func MatMulT(out, a, b []float32, m, k, n int) {
	MatMulTWith(out, a, b, make([]float32, min(m, n)*k), m, k, n)
}

// MatMulTSerial is the single-goroutine reference for MatMulT.
func MatMulTSerial(out, a, b []float32, m, k, n int) {
	matmulT(out, a, b, make([]float32, min(m, n)*k), m, k, n, false)
}

// MatMulTWith is MatMulT over the caller's scratch, at least min(m, n)·k
// floats: it overwrites them with a transposed operand and reads nothing
// else from them.
func MatMulTWith(out, a, b, scratch []float32, m, k, n int) {
	matmulT(out, a, b, scratch, m, k, n, m*k*n >= matmulParallelFlops)
}

// matmulT sweeps whole output rows when n ≤ m, whole output columns when
// m < n: the operand with fewer rows (b, or a) is transposed into scratch,
// and each sweep takes the other operand's row as its k multipliers. The
// transpose costs a k·min(m, n) pass against the product's k·m·n.
func matmulT(out, a, b, scratch []float32, m, k, n int, pooled bool) {
	x, c, sweeps, width := b, a, m, n
	if m < n {
		x, c, sweeps, width = a, b, n, m
	}
	if len(scratch) < width*k {
		panic("runtime: MatMulT scratch holds fewer than min(m, n)·k floats")
	}
	xt := scratch[:width*k]
	transposeLanes(xt, x, width, k)
	if !pooled {
		matmulTSweeps(out, c, xt, m, k, n, 0, sweeps)
		return
	}
	// Column sweeps go out in groups of a cache line's worth of columns, so
	// that two workers rarely write the same line of an output row.
	g := 1
	if m < n {
		g = lineFloats
	}
	ForRange((sweeps+g-1)/g, matmulGrain(k*width)/g, func(g0, g1 int) {
		matmulTSweeps(out, c, xt, m, k, n, g0*g, min(g1*g, sweeps))
	})
}

// laneWidth is the most output elements one sweep accumulates at a time:
// its four lane accumulators then fit one 8 KiB array on the stack. A
// longer sweep runs in blocks of it, each block the same sums.
const laneWidth = 512

// lineFloats is the number of float32s in a 64-byte cache line.
const lineFloats = 16

// matmulTSweeps computes sweeps [r0, r1): output rows r of out when n ≤ m,
// output columns r when m < n. Sweep r takes c's row r as multipliers over
// the lane-ordered transpose xt, one block of at most laneWidth outputs at
// a time, and combines its four lanes as ((s0+s1)+s2)+s3 into out.
func matmulTSweeps(out, c, xt []float32, m, k, n, r0, r1 int) {
	var acc [4 * laneWidth]float32
	width, stride := n, 1 // a sweep's output length, and its step through out
	if m < n {
		width, stride = m, n
	}
	for r := r0; r < r1; r++ {
		crow := c[r*k : (r+1)*k]
		for j0 := 0; j0 < width; j0 += laneWidth {
			w := min(laneWidth, width-j0)
			s0, s1, s2, s3 := sumLanes(acc[:4*w], crow, xt, width, j0)
			o := r*n + j0 // first output of the block: row r, column j0
			if m < n {
				o = j0*n + r // column r, row j0
			}
			for t := range s0 {
				out[o+t*stride] = ((s0[t] + s1[t]) + s2[t]) + s3[t]
			}
		}
	}
}

// sumLanes returns MatMulT's four lane sums for outputs [j0, j0+len(acc)/4)
// of one sweep, held in acc: lane l sums c[p]·xt[p][j] over p ≡ l (mod 4)
// in ascending p below k−k%4, lane 0 then takes the k%4 tail in ascending
// p. Each lane starts at +0 and has no zero skip. xt is k×ld in lane order.
func sumLanes(acc, c, xt []float32, ld, j0 int) (s0, s1, s2, s3 []float32) {
	k := len(c)
	q, tail := k/4, k%4
	w := len(acc) / 4
	s0, s1, s2, s3 = acc[:w], acc[w:2*w], acc[2*w:3*w], acc[3*w:]
	clear(acc)
	lane(s0, c, 0, 4, q, xt, ld, 0, j0)
	lane(s0, c, 4*q, 1, tail, xt, ld, q, j0)
	lane(s1, c, 1, 4, q, xt, ld, q+tail, j0)
	lane(s2, c, 2, 4, q, xt, ld, 2*q+tail, j0)
	lane(s3, c, 3, 4, q, xt, ld, 3*q+tail, j0)
	return
}

// lane adds steps terms c[p]·xt[row][j0+j] to s[j] in turn, for p = p0,
// p0+dp, … and row = r0, r0+1, …: the rows a lane's terms sit on are
// consecutive in the lane-ordered transpose. Four terms share each pass
// over s, in the order one pass per term would add them.
func lane(s, c []float32, p0, dp, steps int, xt []float32, ld, r0, j0 int) {
	w := len(s)
	row := func(r int) []float32 { return xt[r*ld+j0 : r*ld+j0+w] }
	for ; steps >= 4; steps -= 4 {
		axpy4Dense(c[p0], c[p0+dp], c[p0+2*dp], c[p0+3*dp], row(r0), row(r0+1), row(r0+2), row(r0+3), s)
		p0 += 4 * dp
		r0 += 4
	}
	for ; steps > 0; steps-- {
		axpy(c[p0], row(r0), s)
		p0 += dp
		r0++
	}
}

// transposeLanes writes the width×k matrix x transposed into xt (k×width),
// its rows in lane order: the rows of p = 0, 4, 8, … below k−k%4 and then
// the k%4 tail (lane 0), then those of p = 1, 5, … (lane 1), p = 2, 6, …
// (lane 2) and p = 3, 7, … (lane 3).
func transposeLanes(xt, x []float32, width, k int) {
	q := k / 4
	r := 0
	put := func(p int) {
		dst := xt[r*width : (r+1)*width]
		for j := range dst {
			dst[j] = x[j*k+p]
		}
		r++
	}
	for p := 0; p < 4*q; p += 4 {
		put(p)
	}
	for p := 4 * q; p < k; p++ {
		put(p)
	}
	for l := 1; l < 4; l++ {
		for p := l; p < 4*q; p += 4 {
			put(p)
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
	x0, x1, x2, x3 := x[:n], x[n:2*n], x[2*n:3*n], x[3*n:4*n]
	if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 { //apollo:exactfloat exact-zero multipliers keep the single-step skip so 0·Inf never enters a sum
		axpySkipZero(a0, x0, y)
		axpySkipZero(a1, x1, y)
		axpySkipZero(a2, x2, y)
		axpySkipZero(a3, x3, y)
		return
	}
	axpy4Dense(a0, a1, a2, a3, x0, x1, x2, x3, y)
}

// axpy4Dense is axpy4 over four separate rows, with no zero skip.
func axpy4Dense(a0, a1, a2, a3 float32, x0, x1, x2, x3, y []float32) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
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
