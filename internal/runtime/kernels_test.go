package runtime

import (
	"fmt"
	"math"
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
}

func withPoolSizes(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	orig := Workers()
	defer SetWorkers(orig)
	for _, w := range []int{1, 2, 3, 8} {
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

// orderShapes are (m, k, n): every k%4, odd and unit m and n, and the
// shapes the repository benchmark issues.
var orderShapes = []struct{ m, k, n int }{
	{1, 8, 5}, {3, 9, 7}, {5, 10, 1}, {7, 11, 9}, {1, 3, 1}, {2, 4, 2},
	{512, 96, 256}, {512, 256, 96}, {64, 16, 64}, {16, 128, 344},
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
			for _, w := range []int{1, 2, 3} {
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

// TestForRangeAllocs pins what a fan-out allocates: its task closures and
// the one object they share with the owner, nothing per call beyond that.
func TestForRangeAllocs(t *testing.T) {
	p := NewPool(4)
	defer p.Resize(1)
	fn := func(i0, i1 int) {}
	if got := testing.AllocsPerRun(100, func() { p.ForRange(4, 1, fn) }); got > 4 {
		t.Fatalf("ForRange over 4 chunks allocates %v objects, want at most 3 tasks + 1 shared", got)
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
