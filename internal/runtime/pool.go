// Package runtime is the parallel execution substrate shared by the whole
// repository: a persistent worker pool, a range fan-out whose chunks are
// claimed rather than dealt, tiled multi-goroutine kernels for the hot dense
// ops (MatMul and its transposed variants, large elementwise loops) and
// fixed-grid parallel reductions.
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

// Pool is a set of persistent worker goroutines that help ForRange callers
// through their fan-outs. A Pool of size n uses n-1 background workers; the
// goroutine calling ForRange acts as the nth, so size 1 means fully inline
// execution.
//
// A fan-out is not dealt out in advance: ForRange cuts its range into more
// chunks than there are participants and everyone — the caller first —
// claims the next unclaimed chunk from one counter until none is left. The
// queue carries only invitations to join (the fan-out's record), so a worker
// that wakes late, is slow, or never gets scheduled costs the caller at most
// the one chunk that worker holds, and a caller nobody joins does all the
// work itself.
//
// An idle worker polls the queue for about one OS wake-up's worth of time
// before it parks (pollTries): a step issues its fan-outs back to back, so
// the next invitation usually arrives before a parked worker could be woken
// to answer it.
type Pool struct {
	// tasks carries one token per invited helper; nil is the poison that
	// retires one worker. The buffer is slack for nested and concurrent
	// fan-outs (at most Size()-1 tokens each); a full queue never blocks a
	// fan-out, its caller just goes uninvited.
	tasks chan *fanout

	mu   sync.Mutex // guards resizes
	size int32      // atomic: total parallel width including the caller
	bg   int        // background workers currently running (mu)

	// metrics is nil until Instrument wires an obs registry; the hot paths
	// pay one atomic load + branch per event either way (the obs cost
	// contract), never a lock.
	metrics atomic.Pointer[poolMetrics]
}

// chunksPerWorker is how many chunks ForRange cuts per participant: enough
// that the wait for the last chunk in flight is a small share of the range,
// few enough that claiming stays invisible. 4, 8 and 16 read the same within
// run-to-run noise on the fused pre-training step; 8 is kept.
const chunksPerWorker = 8

// fanout is the one heap object a ForRange call allocates: what the caller
// and its helpers share. A token in the queue is a pointer to it.
type fanout struct {
	fn     func(i0, i1 int)
	n      int // the range is [0, n)
	chunk  int // items per chunk; the last chunk may be shorter
	chunks int // chunks cut: ceil(n / chunk)

	next       atomic.Int64        // next unclaimed chunk index
	done       atomic.Int64        // chunks finished, panicked ones included
	firstPanic atomic.Pointer[any] // first panic from any chunk
}

// run executes chunk c. A panicking chunk still counts as done (or the owner
// waits forever) and is kept for the owning ForRange caller to re-raise, not
// raised on whichever worker or helping goroutine claimed it. It does not
// stop the fan-out: every chunk runs exactly once whether or not an earlier
// one panicked (TestForRangeCallerPanicWaitsForInflight counts on the chunks
// behind a panicking chunk 0), so an fn that panics on every chunk is called,
// and recovered, once per chunk before the caller sees the first panic.
func (f *fanout) run(c int) {
	defer func() {
		if r := recover(); r != nil {
			first := r // heap copy on the panic path only
			f.firstPanic.CompareAndSwap(nil, &first)
		}
		f.done.Add(1)
	}()
	i0 := c * f.chunk
	f.fn(i0, min(i0+f.chunk, f.n))
}

// claimOne runs the next unclaimed chunk and reports whether there was one.
// Each index comes out of next exactly once, so no chunk is ever run by two
// goroutines, and a token that arrives after its fan-out completed calls fn
// zero times.
func (f *fanout) claimOne() bool {
	c := int(f.next.Add(1)) - 1
	if c >= f.chunks {
		return false
	}
	f.run(c)
	return true
}

// claim runs unclaimed chunks until there is none.
func (f *fanout) claim() {
	for f.claimOne() {
	}
}

// finished reports whether every chunk has been run, not merely claimed.
func (f *fanout) finished() bool { return f.done.Load() >= int64(f.chunks) }

// poolMetrics is the pool's observability surface: how much work flows
// through it and how it fans out.
type poolMetrics struct {
	tasks     *obs.Counter   // tokens executed by workers or helping callers
	parks     *obs.Counter   // worker polls that ended in a blocking receive
	forRanges *obs.Counter   // ForRange calls that actually fanned out
	chunks    *obs.Histogram // chunks cut per fanned-out ForRange
}

// NewPool returns a pool with the given parallel width (minimum 1).
func NewPool(size int) *Pool {
	p := &Pool{tasks: make(chan *fanout, 1024)}
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
		parks:     reg.Counter("apollo_pool_parks_total", "Idle pool workers that polled the queue in vain and parked until the next task."),
		forRanges: reg.Counter("apollo_pool_forrange_total", "ForRange calls that fanned out across workers."),
		chunks:    reg.Histogram("apollo_pool_forrange_chunks", "Chunks per fanned-out ForRange call.", obs.SizeBuckets),
	})
}

// InstrumentDefault instruments the shared process-wide pool.
func InstrumentDefault(reg *obs.Registry) { defaultPool.Instrument(reg) }

// pollTries is how many times an idle worker looks at the queue, yielding
// between looks, before it parks in a blocking receive. A traced 1×16-token
// step of the 7B proxy on 2 cores issues about 250 fan-outs; 85% of the
// invitations arrive within 50 µs of the helper going idle (median gap
// 17.5 µs), while waking a parked helper takes 69 µs at the median and
// 459 µs at p90. 256 tries took about 44 µs there, one wake-up's worth, and
// 1024 measured no better.
const pollTries = 256

func (p *Pool) worker() {
	for f := p.next(); f != nil; f = p.next() {
		p.join(f)
	}
}

// next is an idle worker's next token (nil is the poison). The poll yields
// between tries, so a pool wider than GOMAXPROCS leaves the callers it
// would help room to run, and it allocates nothing.
func (p *Pool) next() *fanout {
	for range pollTries {
		select {
		case f := <-p.tasks:
			return f
		default:
			goruntime.Gosched()
		}
	}
	if m := p.metrics.Load(); m != nil {
		m.parks.Inc()
	}
	return <-p.tasks
}

// join answers one token: claim whatever f still has unclaimed.
func (p *Pool) join(f *fanout) {
	f.claim()
	p.countToken()
}

// helpWhileWaiting answers token g on behalf of a ForRange caller whose own
// fan-out f still has chunks in flight elsewhere. It looks at f between g's
// chunks, so the caller is held past its own completion by at most the one
// foreign chunk it is in, never by the rest of someone else's range; leaving
// g with chunks unclaimed, it hands the invitation on to whoever is next.
func (p *Pool) helpWhileWaiting(g, f *fanout) {
	for g.claimOne() {
		if f.finished() && int(g.next.Load()) < g.chunks {
			select {
			case p.tasks <- g:
			default: // queue full: g goes on with one helper fewer
			}
			break
		}
	}
	p.countToken()
}

func (p *Pool) countToken() {
	if m := p.metrics.Load(); m != nil {
		m.tasks.Inc()
	}
}

// ForRange cuts [0, n) into contiguous chunks of at least minPerTask items
// (the last may be shorter) and runs fn over each exactly once, using the
// pool when the range is large enough: up to chunksPerWorker chunks per
// participant, claimed one at a time by the caller and by whichever workers
// answer its invitation. The caller executes chunk 0 itself, keeps claiming
// like any helper, and only once nothing is unclaimed waits for the chunks
// still in flight — helping drain the task queue meanwhile, one chunk of
// anyone's fan-out at a time, so nested ForRange calls from inside a chunk can
// never deadlock the pool and a finished caller is not kept for the rest of
// someone else's range. A panic in any chunk is re-raised on the caller after
// every chunk has run: a panic does not cancel the chunks behind it.
//
// fn must write only to data owned by its [i0, i1) range; under that
// discipline the result is bit-identical to fn(0, n), whatever the width
// and whoever ran which chunk.
func (p *Pool) ForRange(n, minPerTask int, fn func(i0, i1 int)) {
	if n <= 0 {
		return
	}
	if minPerTask < 1 {
		minPerTask = 1
	}
	w := p.Size()
	chunks := min(n/minPerTask, w*chunksPerWorker)
	if w <= 1 || chunks <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + chunks - 1) / chunks
	f := &fanout{fn: fn, n: n, chunk: chunk, chunks: (n + chunk - 1) / chunk}
	f.next.Store(1) // chunk 0 is the caller's
	if m := p.metrics.Load(); m != nil {
		m.forRanges.Inc()
		m.chunks.Observe(float64(f.chunks))
	}
invite:
	for range min(w, f.chunks) - 1 {
		select {
		case p.tasks <- f:
		default: // queue full: go on alone rather than block
			break invite
		}
	}
	// The caller's own chunks must not let a panic escape before the chunks
	// in flight elsewhere finish: their goroutines would still be writing
	// into shared output while the caller unwinds — and a recovering caller
	// (bench.runCaptured) could reuse or free that output. run recovers, the
	// wait below is the same as for anyone's panic, then it is re-raised.
	f.run(0)
	f.claim()
	// Every chunk is claimed; help with queued work (stale tokens of ours,
	// or anyone's fan-out) until the ones claimed by others are done.
	for !f.finished() {
		select {
		case g := <-p.tasks:
			if g == nil {
				p.requeuePoison()
				continue
			}
			p.helpWhileWaiting(g, f)
		default:
			goruntime.Gosched()
		}
	}
	if r := f.firstPanic.Load(); r != nil {
		panic(*r)
	}
}

// requeuePoison returns a retirement poison (stolen from the queue by a
// helping ForRange caller) so a background worker eventually consumes it.
// Sending can momentarily fail on a full queue, in which case we drain a
// token to make room — executing real work or collecting further poisons —
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
				p.join(f)
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
