package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"apollo/internal/eval"
	"apollo/internal/nn"
)

// errClosed reports a query racing an entry swap: the registry already
// superseded this entry (hot reload or eviction) and its executor is
// draining. Registry.WithEntry transparently retries on the successor.
var errClosed = errors.New("serve: snapshot superseded")

// errQueueFull reports a submission bounced off the executor's admission
// bound: the pending queue it would join already holds maxQueue items. Unlike
// errClosed this is not retried internally — it maps to 429 so the client
// backs off instead of the queue growing without bound.
var errQueueFull = errors.New("serve: executor queue full, retry later")

// scoreReq is one option-scoring unit: an eval.Query and its result.
type scoreReq struct {
	q      eval.Query
	result float64
	err    error
}

// execReq is a whole-unit operation on the served model (perplexity over
// validation batches); it runs exclusively, like every batcher item.
type execReq struct {
	fn   func(m *nn.Model)
	err  error
	done chan struct{}
}

// item is one queue element: either a scoring unit or an exec unit.
type item struct {
	score *scoreReq
	wg    *sync.WaitGroup // completion of the score's submitting call
	exec  *execReq
	enq   time.Time // stamped at submit; the executor observes the queue wait
}

// batcher serializes all model access for one Entry through a single
// executor goroutine and coalesces queued scoring units into batched
// forwards: units with equal sequence length stack into one
// model.ForwardFrom(tokens, k, t, from) call of up to maxBatch sequences,
// from the chunk's first scored position, and each unit reads its result
// from its own rows with eval.Query.Score. Stacking and starting there are
// bit-transparent — every op in the forward pass is row-local or
// per-(batch,head)-local, the runtime kernels accumulate each output row in
// a fixed order, and ForwardFrom's rows are Forward's — so a unit's result
// never depends on what it was batched with (TestBatchedScoringMatchesEval
// pins this against eval.OptionLogProb, the same Score over a forward of
// one from the unit's own first scored position).
type batcher struct {
	model    *nn.Model
	maxBatch int
	maxQueue int      // pending-item bound; 0 = unbounded
	m        *handles // the registry's, shared by every entry's batcher

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []item
	closed bool
}

func newBatcher(model *nn.Model, maxBatch, maxQueue int, m *handles) *batcher {
	b := &batcher{model: model, maxBatch: maxBatch, maxQueue: maxQueue, m: m}
	b.cond = sync.NewCond(&b.mu)
	go b.loop()
	return b
}

// score submits units and waits for all of them; units with nothing
// scoreable complete at once, scored by eval.Query.Score without a forward.
func (b *batcher) score(reqs []*scoreReq) error {
	var wg sync.WaitGroup
	items := make([]item, 0, len(reqs))
	for _, rq := range reqs {
		if rq.q.Start < 0 {
			rq.result = rq.q.Score(nil, 0, 0)
			continue
		}
		wg.Add(1)
		items = append(items, item{score: rq, wg: &wg})
	}
	if len(items) == 0 {
		return nil
	}
	if err := b.submit(items...); err != nil {
		return err
	}
	wg.Wait()
	for _, rq := range reqs {
		if rq.err != nil {
			return rq.err
		}
	}
	return nil
}

// exec submits a whole-unit operation and waits for it.
func (b *batcher) exec(fn func(m *nn.Model)) error {
	e := &execReq{fn: fn, done: make(chan struct{})}
	if err := b.submit(item{exec: e}); err != nil {
		return err
	}
	<-e.done
	return e.err
}

func (b *batcher) submit(items ...item) error {
	now := time.Now()
	for i := range items {
		items[i].enq = now
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errClosed
	}
	// Admission bound: a submission joins whole when the queue it joins holds
	// fewer than maxQueue items, so a multi-unit zero-shot query never
	// half-enqueues and one larger than the bound is still admissible. The
	// executor drains the whole queue each wake, so this bounds the backlog
	// ahead of a query — and therefore its worst-case queue wait.
	if b.maxQueue > 0 && len(b.queue) >= b.maxQueue {
		b.mu.Unlock()
		return errQueueFull
	}
	b.queue = append(b.queue, items...)
	b.mu.Unlock()
	b.cond.Signal()
	return nil
}

// close marks the batcher superseded. Already-queued work drains; new
// submissions get errClosed. Non-blocking — the registry may call it while
// holding locks.
func (b *batcher) close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	b.mu.Unlock()
	if !already {
		b.cond.Broadcast()
	}
}

// itemOverheadBytes approximates one queued item's fixed cost beyond its
// token slice: the item struct, the scoreReq/execReq it points at, and slice
// headers. A round number — the ledger wants honest magnitude, not
// allocator-exact audits.
const itemOverheadBytes = 128

// queuedBytes measures the memory pinned by the pending queue: token-slice
// storage (8 bytes per int) plus the fixed per-item overhead. This is the
// "batcher_buffers" component of the registry's memory ledger.
func (b *batcher) queuedBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total int64
	for _, it := range b.queue {
		total += itemOverheadBytes
		if it.score != nil {
			total += 8 * int64(cap(it.score.q.Seq))
		}
	}
	return total
}

func (b *batcher) loop() {
	for {
		b.mu.Lock()
		for len(b.queue) == 0 && !b.closed {
			b.cond.Wait()
		}
		batch := b.queue
		b.queue = nil
		closed := b.closed
		b.mu.Unlock()

		if len(batch) > 0 {
			b.process(batch)
		}
		if closed {
			// submit checks closed under the lock, so nothing can trail in:
			// everything queued before close has now been answered.
			return
		}
	}
}

// process runs one drained queue: scoring units grouped and batched first,
// then exec units in arrival order. Results are order-independent — every
// unit depends only on its own inputs and the immutable weights.
func (b *batcher) process(batch []item) {
	now := time.Now()
	for _, it := range batch {
		b.m.queueWait.Observe(now.Sub(it.enq).Seconds())
	}
	groups := map[int][]item{}
	var lens []int
	for _, it := range batch {
		if it.score == nil {
			continue
		}
		l := len(it.score.q.Seq)
		if _, ok := groups[l]; !ok {
			lens = append(lens, l)
		}
		groups[l] = append(groups[l], it)
	}
	for _, l := range lens {
		g := groups[l]
		for at := 0; at < len(g); at += b.maxBatch {
			hi := at + b.maxBatch
			if hi > len(g) {
				hi = len(g)
			}
			b.scoreChunk(g[at:hi], l-1)
		}
	}
	for _, it := range batch {
		if it.exec == nil {
			continue
		}
		it.exec.err = b.safely(func() { it.exec.fn(b.model) })
		b.m.execs.Inc()
		close(it.exec.done)
	}
}

// scoreChunk stacks k equal-length units into one batched forward from the
// least first scored position among them and scores each unit from its own
// rows.
func (b *batcher) scoreChunk(chunk []item, t int) {
	k := len(chunk)
	err := b.safely(func() {
		tokens := make([]int, 0, k*t)
		from := t - 1
		for _, it := range chunk {
			tokens = append(tokens, it.score.q.Seq[:t]...)
			from = min(from, it.score.q.Start)
		}
		logits := b.model.ForwardFrom(tokens, k, t, from)
		for i, it := range chunk {
			it.score.result = it.score.q.Score(logits, i*(t-from), from)
		}
	})
	// Count the forward before releasing its callers, so one that reads the
	// registry on return sees its own last forward.
	b.m.batchSize.Observe(float64(k))
	b.m.forwards.Inc()
	b.m.scored.Add(int64(k))
	for _, it := range chunk {
		if err != nil {
			it.score.err = err
		}
		it.wg.Done()
	}
}

// safely converts a panic in served work into an error on the query — a
// malformed request must never take the executor (and the service) down.
// The failure is the executor's, not the caller's, so it carries a 500.
func (b *batcher) safely(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = internalErr(fmt.Errorf("serve: query failed: %v", r))
		}
	}()
	f()
	return nil
}
