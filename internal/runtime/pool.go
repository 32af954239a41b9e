// Package runtime is the parallel execution substrate shared by the whole
// repository: a persistent worker pool, a deterministic range-splitting
// fan-out, tiled multi-goroutine kernels for the hot dense ops (MatMul and
// its transposed variants, large elementwise loops) and fixed-grid parallel
// reductions.
//
// Determinism contract: every kernel in this package produces bits that
// depend only on its inputs (and compile-time tile constants) — never on the
// worker count, GOMAXPROCS, or goroutine scheduling. The matmul kernels
// achieve this by giving each output element one fixed accumulation order
// over the inner dimension (stated per kernel in kernels.go) regardless of
// how the output is blocked or split; the reductions achieve it by summing
// over a fixed chunk grid whose partials are combined in chunk order. Tests
// compare every kernel, serial and pooled, bit-for-bit against an
// independent reference of its order.
package runtime

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"apollo/internal/obs"
)

// Pool is a set of persistent worker goroutines executing submitted tasks.
// A Pool of size n uses n-1 background workers; the goroutine calling
// ForRange acts as the nth, so size 1 means fully inline execution.
type Pool struct {
	tasks chan func()

	mu   sync.Mutex // guards resizes
	size int32      // atomic: total parallel width including the caller
	bg   int        // background workers currently running (mu)

	// metrics is nil until Instrument wires an obs registry; the hot paths
	// pay one atomic load + branch per event either way (the obs cost
	// contract), never a lock.
	metrics atomic.Pointer[poolMetrics]
}

// poolMetrics is the pool's observability surface: how much work flows
// through it and how it fans out.
type poolMetrics struct {
	tasks     *obs.Counter   // background/stolen tasks executed
	forRanges *obs.Counter   // ForRange calls that actually fanned out
	chunks    *obs.Histogram // chunks per fanned-out ForRange
}

// NewPool returns a pool with the given parallel width (minimum 1).
func NewPool(size int) *Pool {
	p := &Pool{tasks: make(chan func(), 1024)}
	p.Resize(size)
	return p
}

// Size returns the pool's parallel width.
func (p *Pool) Size() int { return int(atomic.LoadInt32(&p.size)) }

// Resize sets the pool's parallel width, spawning or retiring background
// workers as needed. Safe to call concurrently with ForRange.
func (p *Pool) Resize(size int) {
	if size < 1 {
		size = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	target := size - 1
	for p.bg < target {
		go p.worker()
		p.bg++
	}
	for p.bg > target {
		p.tasks <- nil // poison: retires exactly one worker
		p.bg--
	}
	atomic.StoreInt32(&p.size, int32(size))
}

// Instrument registers the pool's counters and queue-depth/width gauges
// into reg and starts counting. Timing-only: instrumentation never changes
// scheduling, so the kernel determinism contract is untouched. Safe to call
// while ForRange runs; a nil reg disables counting again.
func (p *Pool) Instrument(reg *obs.Registry) {
	if reg == nil {
		p.metrics.Store(nil)
		return
	}
	reg.GaugeFunc("apollo_pool_queue_depth", "Tasks waiting in the pool's queue.",
		func() float64 { return float64(len(p.tasks)) })
	reg.GaugeFunc("apollo_pool_workers", "The pool's parallel width (background workers + caller).",
		func() float64 { return float64(p.Size()) })
	p.metrics.Store(&poolMetrics{
		tasks:     reg.Counter("apollo_pool_tasks_total", "Tasks executed by pool workers (including stolen by helping callers)."),
		forRanges: reg.Counter("apollo_pool_forrange_total", "ForRange calls that fanned out across workers."),
		chunks:    reg.Histogram("apollo_pool_forrange_chunks", "Chunks per fanned-out ForRange call.", obs.SizeBuckets),
	})
}

// InstrumentDefault instruments the shared process-wide pool.
func InstrumentDefault(reg *obs.Registry) { defaultPool.Instrument(reg) }

func (p *Pool) worker() {
	for f := range p.tasks {
		if f == nil {
			return
		}
		f()
		if m := p.metrics.Load(); m != nil {
			m.tasks.Inc()
		}
	}
}

// ForRange splits [0, n) into contiguous chunks of at least minPerTask items
// and runs fn over them, using the pool when the range is large enough. The
// caller executes the first chunk itself and, while waiting for the rest,
// helps drain the task queue — so nested ForRange calls from inside a task
// can never deadlock the pool.
//
// fn must write only to data owned by its [i0, i1) range; under that
// discipline the result is bit-identical to fn(0, n).
func (p *Pool) ForRange(n, minPerTask int, fn func(i0, i1 int)) {
	if n <= 0 {
		return
	}
	if minPerTask < 1 {
		minPerTask = 1
	}
	w := p.Size()
	if max := n / minPerTask; w > max {
		w = max
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + w - 1) / w
	if m := p.metrics.Load(); m != nil {
		m.forRanges.Inc()
		m.chunks.Observe(float64((n + chunk - 1) / chunk))
	}
	// What the submitted chunks share with their owner: one heap object per
	// fan-out, besides the task closures.
	var shared struct {
		pending    atomic.Int32
		firstPanic atomic.Pointer[any] // first panic from a submitted chunk
	}
	for i0 := chunk; i0 < n; i0 += chunk {
		i1 := i0 + chunk
		if i1 > n {
			i1 = n
		}
		shared.pending.Add(1)
		a, b := i0, i1
		task := func() {
			// A panicking chunk must still decrement pending (or the owner
			// spins forever) and must be re-raised on the owning ForRange
			// caller, not on whichever worker or helping goroutine stole it.
			defer func() {
				if r := recover(); r != nil {
					first := r // heap copy on the panic path only
					shared.firstPanic.CompareAndSwap(nil, &first)
				}
				shared.pending.Add(-1)
			}()
			fn(a, b)
		}
		select {
		case p.tasks <- task:
		default: // queue full: run inline rather than block
			task()
		}
	}
	// The caller's own chunk must not let a panic escape before the
	// submitted chunks drain: in-flight workers would still be writing into
	// shared output while the caller unwinds — and a recovering caller
	// (bench.runCaptured) could reuse or free that output. Recover here,
	// wait like the submitted-chunk path does, then re-raise.
	var callerPanic any
	var callerPanicked bool
	func() {
		defer func() {
			if r := recover(); r != nil {
				callerPanic, callerPanicked = r, true
			}
		}()
		fn(0, chunk)
	}()
	// Help with queued work (ours or anyone's) until our chunks are done.
	for shared.pending.Load() > 0 {
		select {
		case f := <-p.tasks:
			if f == nil {
				p.requeuePoison()
				continue
			}
			f()
			if m := p.metrics.Load(); m != nil {
				m.tasks.Inc()
			}
		default:
			goruntime.Gosched()
		}
	}
	if callerPanicked {
		panic(callerPanic)
	}
	if r := shared.firstPanic.Load(); r != nil {
		panic(*r)
	}
}

// requeuePoison returns a retirement poison (stolen from the queue by a
// helping ForRange caller) so a background worker eventually consumes it.
// Sending can momentarily fail on a full queue, in which case we drain a
// task to make room — executing real work or collecting further poisons —
// so no poison is ever dropped and Resize's worker accounting stays exact.
func (p *Pool) requeuePoison() {
	owed := 1
	for owed > 0 {
		select {
		case p.tasks <- nil:
			owed--
		case f := <-p.tasks:
			if f == nil {
				owed++
			} else {
				f()
			}
		}
	}
}

// defaultPool is the process-wide pool used by the package-level helpers and,
// through them, by the tensor kernels.
var defaultPool = NewPool(goruntime.GOMAXPROCS(0))

// Default returns the shared process-wide pool.
func Default() *Pool { return defaultPool }

// Workers returns the shared pool's parallel width.
func Workers() int { return defaultPool.Size() }

// SetWorkers resizes the shared pool (1 = fully serial execution). The
// determinism contract makes this a pure performance knob: results are
// bit-identical at any width.
func SetWorkers(n int) { defaultPool.Resize(n) }

// ForRange runs fn over [0, n) on the shared pool. See Pool.ForRange.
func ForRange(n, minPerTask int, fn func(i0, i1 int)) {
	defaultPool.ForRange(n, minPerTask, fn)
}
