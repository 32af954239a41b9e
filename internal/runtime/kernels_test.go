package runtime

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fill populates x with a deterministic, sign-varying pattern including
// exact zeros (the kernels skip zero multipliers, so parity must cover them).
func fill(x []float32, seed uint64) {
	s := seed
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		v := float32(int32(s>>33)%1000) / 997
		if s%17 == 0 {
			v = 0
		}
		x[i] = v
	}
}

// bitEqual demands identical values; two NaNs count as equal (which payload
// survives an add of two NaNs is the compiler's operand order, not ours).
func bitEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s: bit mismatch at %d: got %v want %v", name, i, got[i], want[i])
		}
	}
}

// shapes covers below-threshold, at-threshold and well-above-threshold
// sizes, plus ragged dims that don't divide evenly into tiles or chunks.
var shapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{8, 8, 8},
	{31, 64, 33},
	{64, 64, 64},
	{100, 128, 96},
	{257, 130, 511},
	// Fewer rows than the pool cuts chunks for, each row a task of its own.
	{1, 256, 344},
	{3, 344, 256},
	{5, 260, 257},
}

func withPoolSizes(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	orig := Workers()
	defer SetWorkers(orig)
	for _, w := range []int{1, 2, 3, 4, 8} {
		SetWorkers(w)
		t.Run(fmt.Sprintf("workers=%d", w), body)
	}
}

func TestMatMulParity(t *testing.T) {
	for _, sh := range shapes {
		a := make([]float32, sh.m*sh.k)
		b := make([]float32, sh.k*sh.n)
		fill(a, uint64(sh.m*1000+sh.k))
		fill(b, uint64(sh.k*1000+sh.n))
		want := make([]float32, sh.m*sh.n)
		MatMulSerial(want, a, b, sh.m, sh.k, sh.n)
		withPoolSizes(t, func(t *testing.T) {
			got := make([]float32, sh.m*sh.n)
			fill(got, 999) // kernels must fully overwrite stale output
			MatMul(got, a, b, sh.m, sh.k, sh.n)
			bitEqual(t, fmt.Sprintf("MatMul %dx%dx%d", sh.m, sh.k, sh.n), got, want)
		})
	}
}

func TestMatMulTParity(t *testing.T) {
	for _, sh := range shapes {
		a := make([]float32, sh.m*sh.k)
		b := make([]float32, sh.n*sh.k)
		fill(a, uint64(sh.m*7+sh.k))
		fill(b, uint64(sh.k*7+sh.n))
		want := make([]float32, sh.m*sh.n)
		MatMulTSerial(want, a, b, sh.m, sh.k, sh.n)
		withPoolSizes(t, func(t *testing.T) {
			got := make([]float32, sh.m*sh.n)
			fill(got, 999)
			MatMulT(got, a, b, sh.m, sh.k, sh.n)
			bitEqual(t, fmt.Sprintf("MatMulT %dx%dx%d", sh.m, sh.k, sh.n), got, want)
		})
	}
}

func TestTMatMulParity(t *testing.T) {
	for _, sh := range shapes {
		a := make([]float32, sh.k*sh.m)
		b := make([]float32, sh.k*sh.n)
		fill(a, uint64(sh.m*13+sh.k))
		fill(b, uint64(sh.k*13+sh.n))
		want := make([]float32, sh.m*sh.n)
		TMatMulSerial(want, a, b, sh.k, sh.m, sh.n)
		withPoolSizes(t, func(t *testing.T) {
			got := make([]float32, sh.m*sh.n)
			fill(got, 999)
			TMatMul(got, a, b, sh.k, sh.m, sh.n)
			bitEqual(t, fmt.Sprintf("TMatMul %dx%dx%d", sh.m, sh.k, sh.n), got, want)
		})
	}
}

// TestMatMulMatchesNaive pins the kernels to the textbook triple loop within
// float tolerance (the bit-parity tests above only relate parallel to
// serial; this one catches a kernel that is consistently wrong).
func TestMatMulMatchesNaive(t *testing.T) {
	m, k, n := 33, 20, 29
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	fill(a, 3)
	fill(b, 4)
	naive := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				naive[i*n+j] += float64(a[i*k+p]) * float64(b[p*n+j])
			}
		}
	}
	got := make([]float32, m*n)
	MatMul(got, a, b, m, k, n)
	for i := range got {
		if d := float64(got[i]) - naive[i]; d > 1e-3 || d < -1e-3 {
			t.Fatalf("MatMul vs naive at %d: got %v want %v", i, got[i], naive[i])
		}
	}
}

// The three references below restate each kernel's documented per-element
// accumulation order with no blocking at all. The kernels share their row
// functions between the serial and the pooled entry points, so only an
// independent reference catches a blocked kernel that reorders a sum.

// refMatMul: ascending p, exact-zero a skipped.
func refMatMul(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				if av := a[i*k+p]; av != 0 {
					s += av * b[p*n+j]
				}
			}
			out[i*n+j] = s
		}
	}
	return out
}

// refTMatMul: ascending p, exact-zero a skipped; a is k×m.
func refTMatMul(a, b []float32, k, m, n int) []float32 {
	out := make([]float32, m*n)
	for r := 0; r < m; r++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				if av := a[p*m+r]; av != 0 {
					s += av * b[p*n+j]
				}
			}
			out[r*n+j] = s
		}
	}
	return out
}

// refMatMulT: four lanes over the first k−k%4 indices, the tail into lane
// 0, lanes combined left to right; b is n×k.
func refMatMulT(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var lane [4]float32
			for p := 0; p < k-k%4; p++ {
				lane[p%4] += a[i*k+p] * b[j*k+p]
			}
			for p := k - k%4; p < k; p++ {
				lane[0] += a[i*k+p] * b[j*k+p]
			}
			out[i*n+j] = ((lane[0] + lane[1]) + lane[2]) + lane[3]
		}
	}
	return out
}

// orderShapes are (m, k, n): every k%4, odd and unit m and n, the shapes
// the repository benchmark issues, and m of 1, 3 and 5 with rows wide enough
// to be a task each — fewer rows than a pool of 4 cuts chunks for, so the
// chunk geometry is covered as well as the worker count.
var orderShapes = []struct{ m, k, n int }{
	{1, 8, 5}, {3, 9, 7}, {5, 10, 1}, {7, 11, 9}, {1, 3, 1}, {2, 4, 2},
	{512, 96, 256}, {512, 256, 96}, {64, 16, 64}, {16, 128, 344},
	{1, 256, 344}, {3, 344, 256}, {5, 260, 257},
}

var nonFinite = []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}

// TestKernelsMatchReferenceOrder holds all three kernels, serial and pooled,
// to the references bit for bit: on dense-with-zeros inputs, and with a
// entirely zero against a b full of ±Inf and NaN (MatMul and TMatMul must
// skip every product and return zeros; MatMulT has no skip and must
// propagate exactly what the reference does).
func TestKernelsMatchReferenceOrder(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	for _, sh := range orderShapes {
		m, k, n := sh.m, sh.k, sh.n
		for _, zeroA := range []bool{false, true} {
			a := make([]float32, m*k) // also read as k×m by TMatMul
			b := make([]float32, k*n) // also read as n×k by MatMulT
			fill(b, uint64(k*31+n))
			if zeroA {
				for i := range b {
					if i%3 == 0 {
						b[i] = nonFinite[(i/3)%len(nonFinite)]
					}
				}
			} else {
				fill(a, uint64(m*31+k)) // one entry in seventeen is an exact zero
			}
			wantMM, wantTM, wantMT := refMatMul(a, b, m, k, n), refTMatMul(a, b, k, m, n), refMatMulT(a, b, m, k, n)
			for _, w := range []int{1, 2, 3, 4} {
				SetWorkers(w)
				tag := fmt.Sprintf("%dx%dx%d zeroA=%v workers=%d", m, k, n, zeroA, w)
				got := make([]float32, m*n)
				for _, kern := range []struct {
					name string
					run  func()
					want []float32
				}{
					{"MatMul", func() { MatMul(got, a, b, m, k, n) }, wantMM},
					{"MatMulSerial", func() { MatMulSerial(got, a, b, m, k, n) }, wantMM},
					{"TMatMul", func() { TMatMul(got, a, b, k, m, n) }, wantTM},
					{"TMatMulSerial", func() { TMatMulSerial(got, a, b, k, m, n) }, wantTM},
					{"MatMulT", func() { MatMulT(got, a, b, m, k, n) }, wantMT},
					{"MatMulTSerial", func() { MatMulTSerial(got, a, b, m, k, n) }, wantMT},
				} {
					fill(got, 999) // kernels must fully overwrite stale output
					kern.run()
					bitEqual(t, kern.name+" "+tag, got, kern.want)
				}
			}
		}
	}
}

// sameBits demands identical bit patterns, so +0 and −0 differ; two NaNs
// count as equal, as in bitEqual.
func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s: bit mismatch at %d: got %v (%#08x) want %v (%#08x)", name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestMatMulTScratchIsOpaque: MatMulTWith reads nothing from its scratch
// but what it wrote there itself. The scratch arrives full of NaN, or of a
// previous call's transpose, or longer than needed, and the result is the
// reference's bit for bit — through both orientations (m == n and m = n+1
// transpose b, m = n−1 transposes a), on both sides of matmulParallelFlops,
// and across laneWidth. Row 0 of a is −0 against a positive b, so every
// product of that output row is −0 and the row must read the reference's
// +0.
func TestMatMulTScratchIsOpaque(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(3)
	negZero := float32(math.Copysign(0, -1))
	for _, sh := range []struct{ m, k, n int }{
		{8, 8, 8}, {9, 7, 8}, {8, 6, 9}, // small
		{30, 30, 30}, {31, 30, 30}, {30, 30, 31}, // below the fan-out threshold
		{40, 41, 40}, {41, 40, 40}, {40, 40, 41}, // above it
		{1, 9, 2}, {2, 5, 1}, {513, 2, 514}, {514, 3, 513}, // unit sides, sweeps longer than laneWidth
	} {
		m, k, n := sh.m, sh.k, sh.n
		if below := m*k*n < matmulParallelFlops; below != (m <= 31) {
			t.Fatalf("%dx%dx%d was meant to be on the other side of matmulParallelFlops", m, k, n)
		}
		a := make([]float32, m*k)
		b := make([]float32, n*k)
		fill(a, uint64(m*7+k))
		fill(b, uint64(n*7+k))
		for i := range b {
			b[i] = float32(math.Abs(float64(b[i]))) + 0.5
		}
		for p := 0; p < k; p++ {
			a[p] = negZero
		}
		want := refMatMulT(a, b, m, k, n)
		for j := 0; j < n; j++ {
			if math.Float32bits(want[j]) != 0 {
				t.Fatalf("%dx%dx%d: reference row 0 reads %v, want +0", m, k, n, want[j])
			}
		}
		need := min(m, n) * k
		nan := make([]float32, need)
		for i := range nan {
			nan[i] = float32(math.NaN())
		}
		stale := make([]float32, need+37)
		fill(stale, 77)
		for i := 0; i < len(stale); i += 3 {
			stale[i] = nonFinite[i%len(nonFinite)]
		}
		for _, sc := range []struct {
			name    string
			scratch []float32
		}{{"NaN", nan}, {"stale and longer", stale}, {"NaN again", nan}} {
			tag := fmt.Sprintf("%dx%dx%d scratch %s", m, k, n, sc.name)
			got := make([]float32, m*n)
			fill(got, 999)
			MatMulTWith(got, a, b, sc.scratch, m, k, n)
			sameBits(t, tag, got, want)
			// The scratch now holds this call's transpose: the next shape's
			// call through it is a call over stale values.
			fill(got, 999)
			MatMulTWith(got, b, a, sc.scratch, n, k, m) // the other orientation
			sameBits(t, tag+" swapped", got, refMatMulT(b, a, n, k, m))
		}
	}
}

// FuzzMatMulTOrder holds MatMulT, serial and pooled, to refMatMulT bit for
// bit on fuzzed shapes (m, n ≤ 40, k ≤ 40) and values — among them ±Inf,
// NaN and −0 — at 1 and 3 workers. Every shape here is below
// matmulParallelFlops, so the pooled path is also forced directly.
//
//	go test ./internal/runtime -run '^$' -fuzz FuzzMatMulTOrder -fuzztime 20s
func FuzzMatMulTOrder(f *testing.F) {
	f.Add([]byte{3, 5, 7, 0, 1, 2, 3, 4, 5, 6, 7, 200, 100, 50})
	f.Add([]byte{40, 40, 40, 9, 1, 250, 4})
	f.Add([]byte{1, 0, 1})
	f.Add([]byte{2, 9, 39, 1, 1, 1, 1, 1, 1, 1, 1, 1, 30, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, k, n := int(data[0])%40+1, int(data[1])%41, int(data[2])%40+1
		vals := data[3:]
		special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1, -1, 1e-40}
		value := func(i int) float32 {
			if len(vals) == 0 {
				return float32(i%13) - 6
			}
			v := vals[i%len(vals)] + byte(i/len(vals))
			if int(v) < len(special) {
				return special[v]
			}
			return float32(int8(v)) / 7
		}
		a := make([]float32, m*k)
		b := make([]float32, n*k)
		for i := range a {
			a[i] = value(i)
		}
		for i := range b {
			b[i] = value(len(a) + i)
		}
		want := refMatMulT(a, b, m, k, n)
		orig := Workers()
		defer SetWorkers(orig)
		for _, w := range []int{1, 3} {
			SetWorkers(w)
			got := make([]float32, m*n)
			for _, kern := range []struct {
				name string
				run  func()
			}{
				{"MatMulT", func() { MatMulT(got, a, b, m, k, n) }},
				{"MatMulTSerial", func() { MatMulTSerial(got, a, b, m, k, n) }},
				{"pooled", func() { matmulT(got, a, b, make([]float32, min(m, n)*k), m, k, n, true) }},
			} {
				fill(got, 999)
				kern.run()
				sameBits(t, fmt.Sprintf("%s %dx%dx%d workers=%d", kern.name, m, k, n, w), got, want)
			}
		}
	})
}

// TestMatMulTConcurrentCallers: data-parallel replicas, the overlapped
// stepper and serve each call MatMulT on their own goroutine, on one pool.
// Four callers share a read-only b, each with its own a, out and scratch,
// in both orientations and through the allocating entry point; every
// result must be the serial one bit for bit (run it under -race).
func TestMatMulTConcurrentCallers(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(3)
	for _, sh := range []struct{ m, k, n int }{{96, 64, 48}, {48, 64, 96}} {
		m, k, n := sh.m, sh.k, sh.n
		b := make([]float32, n*k)
		fill(b, 5)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a := make([]float32, m*k)
				fill(a, uint64(g+11))
				want := make([]float32, m*n)
				MatMulTSerial(want, a, b, m, k, n)
				got := make([]float32, m*n)
				scratch := make([]float32, min(m, n)*k)
				for rep := 0; rep < 5; rep++ {
					if rep%2 == 0 {
						MatMulTWith(got, a, b, scratch, m, k, n)
					} else {
						MatMulT(got, a, b, m, k, n)
					}
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Errorf("%dx%dx%d caller %d rep %d: out[%d] = %v, serial %v", m, k, n, g, rep, i, got[i], want[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestMatMulSkipsZeroAgainstNonFinite pins the skip where it matters: a row
// whose only zeros sit exactly on the non-finite rows of b stays finite.
func TestMatMulSkipsZeroAgainstNonFinite(t *testing.T) {
	const m, k, n = 3, 10, 6
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	fill(b, 5)
	for i := range a {
		a[i] = float32(i%5) + 1
	}
	for _, p := range []int{1, 6, 9} { // a group of four with one zero, another, and the tail
		for i := 0; i < m; i++ {
			a[i*k+p] = 0
		}
		for j := 0; j < n; j++ {
			b[p*n+j] = nonFinite[j%len(nonFinite)]
		}
	}
	got := make([]float32, m*n)
	MatMul(got, a, b, m, k, n)
	bitEqual(t, "MatMul", got, refMatMul(a, b, m, k, n))
	for i, v := range got {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("MatMul let a zero multiplier meet a non-finite b: out[%d] = %v", i, v)
		}
	}
}

func TestReduceParity(t *testing.T) {
	for _, n := range []int{0, 1, 100, ReduceChunk, ReduceChunk + 1, 3*ReduceChunk + 17, ParallelReduceMin + 5} {
		x := make([]float32, n)
		fill(x, uint64(n)+11)
		origWorkers := Workers()
		SetWorkers(1)
		wantSum := SumChunked(x)
		wantSq := SqNormChunked(x)
		SetWorkers(origWorkers)
		withPoolSizes(t, func(t *testing.T) {
			if got := SumChunked(x); got != wantSum {
				t.Fatalf("SumChunked(n=%d) = %v, want %v", n, got, wantSum)
			}
			if got := SqNormChunked(x); got != wantSq {
				t.Fatalf("SqNormChunked(n=%d) = %v, want %v", n, got, wantSq)
			}
		})
	}
}

func TestAxpyScaleParity(t *testing.T) {
	n := 1<<15 + 13
	x := make([]float32, n)
	fill(x, 21)
	yserial := make([]float32, n)
	fill(yserial, 22)
	orig := Workers()
	SetWorkers(1)
	Axpy(0.75, x, yserial)
	Scale(yserial, -1.25)
	SetWorkers(orig)
	withPoolSizes(t, func(t *testing.T) {
		y := make([]float32, n)
		fill(y, 22)
		Axpy(0.75, x, y)
		Scale(y, -1.25)
		bitEqual(t, "Axpy+Scale", y, yserial)
	})
}

// TestNestedForRange exercises fan-out from inside pool tasks (the shape the
// data-parallel trainer produces: replica goroutines running pooled
// kernels). The helping wait loop must keep this deadlock-free.
func TestNestedForRange(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(4)
	out := make([]float32, 64*64)
	a := make([]float32, 64*64)
	b := make([]float32, 64*64)
	fill(a, 1)
	fill(b, 2)
	ForRange(16, 1, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			local := make([]float32, 64*64)
			MatMul(local, a, b, 64, 64, 64)
			if i == 0 {
				copy(out, local)
			}
		}
	})
	want := make([]float32, 64*64)
	MatMulSerial(want, a, b, 64, 64, 64)
	bitEqual(t, "nested MatMul", out, want)
}

// TestForRangePanicPropagates checks a panicking chunk surfaces on the
// ForRange caller (not a background worker) and leaves the pool usable.
func TestForRangePanicPropagates(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(4)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected ForRange to re-panic")
			}
		}()
		ForRange(100, 1, func(i0, i1 int) {
			if i0 > 0 { // panic only in a submitted (non-caller) chunk
				panic("chunk boom")
			}
		})
	}()
	// The pool must still work after swallowing the panic.
	var hits [32]int32
	ForRange(32, 1, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("post-panic: index %d visited %d times", i, h)
		}
	}
}

// TestForRangeCallerPanicWaitsForInflight pins the pool-hardening contract:
// when the CALLER-executed chunk panics, ForRange must still wait for every
// in-flight submitted chunk before re-raising — otherwise a recovering
// caller (bench.runCaptured keeps scheduling after recovering) races
// against workers still writing into the shared output.
func TestForRangeCallerPanicWaitsForInflight(t *testing.T) {
	p := NewPool(4) // private pool: the shared one may be size 1 on 1-core hosts
	const n, chunks = 64, 4
	var completed int32
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected ForRange to re-panic the caller chunk's panic")
			}
			if r != "caller boom" {
				t.Fatalf("re-panicked %v, want the caller chunk's panic", r)
			}
			// The moment the panic surfaces, every submitted chunk must have
			// finished — no in-flight writers left behind.
			if got := atomic.LoadInt32(&completed); got != chunks-1 {
				t.Fatalf("panic escaped with %d of %d submitted chunks complete", got, chunks-1)
			}
		}()
		p.ForRange(n, n/chunks, func(i0, i1 int) {
			if i0 == 0 { // the chunk the caller executes itself
				panic("caller boom")
			}
			time.Sleep(20 * time.Millisecond) // in-flight long enough to observe
			atomic.AddInt32(&completed, 1)
		})
	}()
	// The pool stays usable afterwards.
	var hits int32
	p.ForRange(16, 1, func(i0, i1 int) { atomic.AddInt32(&hits, int32(i1-i0)) })
	if hits != 16 {
		t.Fatalf("post-panic ForRange covered %d of 16", hits)
	}
}

// TestForRangeAllocs pins what a fan-out allocates: the one record its
// caller and helpers share, however many chunks it cuts.
func TestForRangeAllocs(t *testing.T) {
	p := NewPool(4)
	defer p.Resize(1)
	fn := func(i0, i1 int) {}
	for _, n := range []int{4, 1000} {
		if got := testing.AllocsPerRun(100, func() { p.ForRange(n, 1, fn) }); got > 1 {
			t.Fatalf("ForRange over %d items allocates %v objects, want at most the 1 shared record", n, got)
		}
	}
}

func TestPoolResize(t *testing.T) {
	p := NewPool(4)
	if p.Size() != 4 {
		t.Fatalf("Size = %d, want 4", p.Size())
	}
	p.Resize(1)
	if p.Size() != 1 {
		t.Fatalf("Size = %d, want 1", p.Size())
	}
	p.Resize(8)
	var hits [100]int32
	p.ForRange(100, 1, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestForRangeCoversEveryIndexOnce is the claim protocol's coverage
// contract: whatever the chunk geometry, the chunks are disjoint, together
// cover [0, n), and all but the one ending at n hold at least minPerTask
// items.
func TestForRangeCoversEveryIndexOnce(t *testing.T) {
	for width := 1; width <= 5; width++ {
		p := NewPool(width)
		for _, n := range []int{1, 2, 7, 64, 1000} {
			for _, minPerTask := range []int{1, 3, n} {
				hits := make([]int32, n)
				p.ForRange(n, minPerTask, func(i0, i1 int) {
					if i1-i0 < minPerTask && i1 != n {
						t.Errorf("width %d n %d minPerTask %d: chunk [%d, %d) is below the grain", width, n, minPerTask, i0, i1)
					}
					for i := i0; i < i1; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("width %d n %d minPerTask %d: index %d visited %d times", width, n, minPerTask, i, h)
					}
				}
			}
		}
		p.Resize(1)
	}
}

// blockWorkers parks every background worker of a pool of the given width
// (and one goroutine standing in as that fan-out's caller) inside a chunk
// until the returned release is called; release returns once they are out.
func blockWorkers(t *testing.T, p *Pool, width int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	returned := make(chan struct{})
	var in atomic.Int32
	go func() {
		defer close(returned)
		p.ForRange(width, 1, func(i0, i1 int) {
			in.Add(1)
			<-gate
		})
	}()
	waitFor(t, "every worker to block on the gate", func() bool { return int(in.Load()) == width })
	return func() {
		close(gate)
		<-returned
	}
}

// TestForRangeProgressWithoutWorkers: helpers are invited, never relied on.
// With every worker stuck elsewhere the caller runs each chunk itself, and
// the tokens it left in the queue find nothing to do when they are finally
// answered.
func TestForRangeProgressWithoutWorkers(t *testing.T) {
	const width = 4
	p := NewPool(width)
	release := blockWorkers(t, p, width)

	var calls, items atomic.Int32
	p.ForRange(64, 1, func(i0, i1 int) {
		calls.Add(1)
		items.Add(int32(i1 - i0))
	})
	const chunks = width * chunksPerWorker
	if calls.Load() != chunks || items.Load() != 64 {
		t.Fatalf("alone, the caller ran fn %d times over %d items, want %d chunks over 64", calls.Load(), items.Load(), chunks)
	}
	if got := len(p.tasks); got != width-1 {
		t.Fatalf("%d tokens left in the queue, want the %d invitations nobody answered", got, width-1)
	}

	release()
	// Poisons queue behind the stale tokens, so once every worker has taken
	// its poison every token has been answered.
	p.Resize(1)
	waitFor(t, "the stale tokens and poisons to drain", func() bool { return len(p.tasks) == 0 })
	if calls.Load() != chunks {
		t.Fatalf("stale tokens ran fn %d more times", calls.Load()-chunks)
	}
}

// TestForRangeRebalancesAroundSlowChunk: a caller held up in chunk 0 keeps
// only chunk 0. Chunk 0 here does not return until every other chunk has been
// claimed and finished by the helpers — under a fixed caller's share of the
// range it never would — so the fan-out ends with its slowest chunk, not that
// plus whatever the caller was dealt. The wait is on that event, not a clock.
func TestForRangeRebalancesAroundSlowChunk(t *testing.T) {
	const width, n = 4, 32
	p := NewPool(width)
	defer p.Resize(1)
	var others, othersAtRelease atomic.Int32
	var released time.Time
	p.ForRange(n, 1, func(i0, i1 int) {
		if i0 != 0 {
			others.Add(1)
			return
		}
		for deadline := time.Now().Add(5 * time.Second); others.Load() < n-1 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		othersAtRelease.Store(others.Load())
		released = time.Now()
	})
	after := time.Since(released)
	if got := othersAtRelease.Load(); got != n-1 {
		t.Fatalf("with the caller held in chunk 0 the helpers finished %d of the other %d chunks", got, n-1)
	}
	// Nothing was left for the caller to do; a second is a stuck wait, not a slow host.
	if after > time.Second {
		t.Fatalf("fan-out went on for %v after its last chunk", after)
	}
}

// TestForRangeWaitingCallerLeavesForeignFanOut: a caller down to waiting for
// its last chunk in flight helps whoever is queued, but looks at its own
// fan-out between their chunks. X's only helper holds x's chunk 1 until a
// chunk of y has started, Y is held in y's chunk 0, so it is X, waiting, that
// answers y's token: it must be back once x is finished, with the rest of y
// handed on to the worker rather than run to the end or dropped.
func TestForRangeWaitingCallerLeavesForeignFanOut(t *testing.T) {
	p := NewPool(2)
	defer p.Resize(1)
	workerIn, xGate, yGate, yReturned := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	var xOut atomic.Bool
	var yRan atomic.Int32
	go func() {
		defer close(yReturned)
		<-workerIn // the pool's one worker is inside x from here on
		p.ForRange(64, 1, func(i0, i1 int) {
			if i0 == 0 {
				<-yGate
				return
			}
			if yRan.Add(1) == 1 {
				close(xGate)
			}
			for !xOut.Load() {
				time.Sleep(100 * time.Microsecond)
			}
			time.Sleep(time.Millisecond) // x's chunk 1 has returned: let it be counted
		})
	}()
	p.ForRange(2, 1, func(i0, i1 int) {
		if i0 == 0 {
			<-workerIn // so chunk 1 is the worker's, not claimed by the caller
			return
		}
		defer xOut.Store(true)
		close(workerIn)
		<-xGate
	})
	const yChunks = 2*chunksPerWorker - 1 // all but Y's own
	if got := yRan.Load(); got > 3 {
		t.Fatalf("the waiting caller came back after %d of y's %d chunks, want after the one it was in", got, yChunks)
	}
	close(yGate)
	<-yReturned
	if got := yRan.Load(); got != yChunks {
		t.Fatalf("y ran %d chunks, want %d", got, yChunks)
	}
}

// TestForRangeHelperPanicWaitsForCaller: a chunk panicking on a worker while
// the caller is in the middle of its own is not raised there and then — the
// caller finishes its chunk, and only then does ForRange re-raise on it. The
// worker survives.
func TestForRangeHelperPanicWaitsForCaller(t *testing.T) {
	p := NewPool(2)
	defer p.Resize(1)
	callerIn := make(chan struct{})
	helperOut := make(chan struct{})
	var callerFinished atomic.Bool
	func() {
		defer func() {
			if r := recover(); r != "helper boom" {
				t.Fatalf("recovered %v, want the helper chunk's panic", r)
			}
			if !callerFinished.Load() {
				t.Fatal("panic surfaced before the caller's own chunk finished")
			}
		}()
		p.ForRange(2, 1, func(i0, i1 int) {
			if i0 == 0 { // the caller, which cannot claim chunk 1 from in here
				close(callerIn)
				<-helperOut
				time.Sleep(5 * time.Millisecond) // let the panic unwind on the worker
				callerFinished.Store(true)
				return
			}
			<-callerIn
			defer close(helperOut)
			panic("helper boom")
		})
	}()
	// The worker is still there to be blocked.
	blockWorkers(t, p, 2)()
}

// TestPoolResizeDuringFanOuts resizes a pool down and up under concurrent
// fan-outs: no chunk may be lost or run twice, and no poison may be lost —
// in the end exactly the workers the last Resize asked for are alive.
func TestPoolResizeDuringFanOuts(t *testing.T) {
	before := goruntime.NumGoroutine()
	p := NewPool(4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			const n = 200
			hits := make([]int32, n)
			for round := int32(1); ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				p.ForRange(n, 1, func(i0, i1 int) {
					for i := i0; i < i1; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i := range hits {
					if h := atomic.LoadInt32(&hits[i]); h != round {
						t.Errorf("round %d: index %d visited %d times", round, i, h)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		p.Resize([]int{1, 5, 2, 4, 1, 3}[i%6])
	}
	close(stop)
	wg.Wait()
	p.Resize(1)
	waitFor(t, "every worker to retire", func() bool {
		return len(p.tasks) == 0 && goruntime.NumGoroutine() <= before
	})
}

// TestPoolResizeWhilePolling retires workers right after a run of fan-outs,
// so the poisons reach them while they poll the queue rather than parked:
// each poison retires exactly one worker, and the resized-up pool covers
// every index once.
func TestPoolResizeWhilePolling(t *testing.T) {
	before := goruntime.NumGoroutine()
	p := NewPool(4)
	for range 100 {
		p.ForRange(64, 1, func(i0, i1 int) {})
	}
	p.Resize(1)
	// Only workers take from the queue here, and one that takes a poison
	// returns: an empty queue and the goroutine count back where it was
	// mean each poison retired one worker.
	waitFor(t, "every retired worker to exit", func() bool {
		return len(p.tasks) == 0 && goruntime.NumGoroutine() <= before
	})
	p.Resize(3)
	defer p.Resize(1)
	hits := make([]int32, 1000)
	p.ForRange(len(hits), 1, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("after resizing up, index %d visited %d times", i, h)
		}
	}
}

// TestForRangeProgressUnderOneProc: with one P and a pool of three, two
// idle workers poll the queue while the caller needs the P to run its
// chunks. Every chunk yields, so the workers do get the P between them, and
// the poll yields it back: 10,000 tiny fan-outs still finish promptly and
// cover every index once.
func TestForRangeProgressUnderOneProc(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	p := NewPool(3)
	defer p.Resize(1)
	done := make(chan struct{})
	var bad atomic.Int32
	go func() {
		defer close(done)
		var hits [24]int32
		for round := int32(1); round <= 10000; round++ {
			p.ForRange(len(hits), 1, func(i0, i1 int) {
				for i := i0; i < i1; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
				goruntime.Gosched()
			})
			for i := range hits {
				if atomic.LoadInt32(&hits[i]) != round {
					bad.Store(round)
					return
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("10,000 fan-outs at GOMAXPROCS 1 did not finish in 30 s")
	}
	if r := bad.Load(); r != 0 {
		t.Fatalf("round %d: an index was not visited exactly once", r)
	}
}
