package runtime

import (
	"fmt"
	"testing"
)

// Kernel benchmarks for use while working on the kernels:
//
//	go test ./internal/runtime/ -run '^$' -bench 'MatMul' -benchtime 2s
//
// BenchmarkMatMulT, BenchmarkMatMul and BenchmarkTMatMul time each kernel
// at the Linear shapes the repository benchmark's workloads issue, serially
// and on the pool, and report GMAC/s (multiply-adds per nanosecond). The
// numbers of record stay the repository benchmark's: `bash benchmark/run.sh
// --workload pretrain_fused --trace 1` reports `runtime.*_gflops` and
// `runtime.parallel_speedup` at its MLP-up shape. Speedup scales with core
// count: the parallel kernel is bit-identical to the serial one, so worker
// count is a pure perf knob.

// linearShapes are (rows, in, out) of a Linear forward: pretrain_fused's
// MLP up and down projections at 512 rows, pretrain_dpzero's per-sequence
// attention projection, and pretrain_microbatch's up and down at 16 rows.
var linearShapes = []struct{ m, k, n int }{
	{512, 96, 256}, {512, 256, 96}, {64, 96, 96}, {16, 128, 344}, {16, 344, 128},
}

// benchKernel times run over inputs of the given lengths, serially or on
// the pool, and reports GMAC/s for macs multiply-adds per call.
func benchKernel(b *testing.B, parallel bool, macs, outLen, aLen, bLen int, run func(out, a, bb []float32)) {
	a, bb, out := make([]float32, aLen), make([]float32, bLen), make([]float32, outLen)
	fill(a, 1)
	fill(bb, 2)
	orig := Workers()
	defer SetWorkers(orig)
	if !parallel {
		SetWorkers(1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(out, a, bb)
	}
	b.ReportMetric(float64(macs)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GMAC/s")
}

// benchShapes runs one kernel over linearShapes, serial and pooled; mk
// returns the output, a and b lengths and the call for a shape.
func benchShapes(b *testing.B, mk func(m, k, n int) (outLen, aLen, bLen int, run func(out, a, bb []float32))) {
	for _, sh := range linearShapes {
		for _, parallel := range []bool{false, true} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", sh.m, sh.k, sh.n, mode(parallel)), func(b *testing.B) {
				outLen, aLen, bLen, run := mk(sh.m, sh.k, sh.n)
				benchKernel(b, parallel, sh.m*sh.k*sh.n, outLen, aLen, bLen, run)
			})
		}
	}
}

func mode(parallel bool) string {
	if parallel {
		return "pooled"
	}
	return "serial"
}

// BenchmarkMatMulT is Linear's forward, y (m×n) = x (m×k) · Wᵀ (W n×k).
func BenchmarkMatMulT(b *testing.B) {
	benchShapes(b, func(m, k, n int) (int, int, int, func(out, a, bb []float32)) {
		return m * n, m * k, n * k, func(out, a, bb []float32) { MatMulT(out, a, bb, m, k, n) }
	})
}

// BenchmarkMatMul is Linear's input gradient at the same shape, dx (m×k) =
// dy (m×n) · W (n×k); it reports the same m·k·n multiply-adds.
func BenchmarkMatMul(b *testing.B) {
	benchShapes(b, func(m, k, n int) (int, int, int, func(out, a, bb []float32)) {
		return m * k, m * n, n * k, func(out, a, bb []float32) { MatMul(out, a, bb, m, n, k) }
	})
}

// BenchmarkTMatMul is Linear's weight gradient at the same shape, dW (n×k)
// = dyᵀ (dy m×n) · x (m×k).
func BenchmarkTMatMul(b *testing.B) {
	benchShapes(b, func(m, k, n int) (int, int, int, func(out, a, bb []float32)) {
		return n * k, m * n, m * k, func(out, a, bb []float32) { TMatMul(out, a, bb, m, n, k) }
	})
}

// BenchmarkForRangeChain issues back-to-back fan-outs of pretrain_microbatch's
// smallest Linear forward (MatMulT 16×128×128, over a lent transpose buffer
// as nn.Linear calls it), serially and on the pool, and reports µs per call.
// A step of that workload is about 250 such small fan-outs in a row, so the
// pooled figure is what a helper costs or saves when it must be woken, or
// is already polling, for each of them.
func BenchmarkForRangeChain(b *testing.B) {
	const m, k, n = 16, 128, 128
	for _, parallel := range []bool{false, true} {
		b.Run(mode(parallel), func(b *testing.B) {
			x, w, y, scratch := make([]float32, m*k), make([]float32, n*k), make([]float32, m*n), make([]float32, min(m, n)*k)
			fill(x, 1)
			fill(w, 2)
			orig := Workers()
			defer SetWorkers(orig)
			if !parallel {
				SetWorkers(1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTWith(y, x, w, scratch, m, k, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "µs/fan-out")
		})
	}
}

func BenchmarkSqNormChunked(b *testing.B) {
	x := make([]float32, 1<<20)
	fill(x, 3)
	b.SetBytes(int64(len(x) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SqNormChunked(x)
	}
}
