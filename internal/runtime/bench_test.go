package runtime

import (
	"fmt"
	"testing"
)

// Square-matrix kernel benchmarks for use while working on the kernels:
//
//	go test ./internal/runtime/ -bench MatMul -benchtime 2s
//
// The numbers of record are the repository benchmark's, at the shapes a
// training step issues: `bash benchmark/run.sh --workload pretrain_fused
// --trace 1` reports `runtime.*_gflops` and `runtime.parallel_speedup`.
// Speedup scales with core count: the parallel kernel is bit-identical to
// the serial one, so worker count is a pure perf knob.

func benchMatMul(b *testing.B, size int, parallel bool) {
	a := make([]float32, size*size)
	bb := make([]float32, size*size)
	out := make([]float32, size*size)
	fill(a, 1)
	fill(bb, 2)
	orig := Workers()
	defer SetWorkers(orig)
	if !parallel {
		SetWorkers(1)
	}
	b.SetBytes(int64(size * size * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(out, a, bb, size, size, size)
	}
}

func BenchmarkMatMulSerial(b *testing.B) {
	for _, size := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			benchMatMul(b, size, false)
		})
	}
}

func BenchmarkMatMulParallel(b *testing.B) {
	for _, size := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			benchMatMul(b, size, true)
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
