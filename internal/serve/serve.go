// Package serve is the checkpoint-streamed evaluation service: it loads any
// internal/ckpt snapshot through the weights-only read path and answers the
// paper's Section 5 queries — validation perplexity, zero-shot multiple
// choice, option log-probabilities and fine-tuning accuracy — without
// re-running training.
//
// Three pieces:
//
//   - Registry: a snapshot registry with an LRU model cache and hot reload.
//     Every Acquire re-stats the checkpoint file; when the bytes on disk
//     changed (a training run's periodic save), a fresh model is loaded and
//     swapped in atomically while in-flight queries finish on the old one —
//     pointing the service at a live run's -save path yields a
//     live-updating endpoint.
//
//   - Batcher (batcher.go): one executor per open snapshot that coalesces
//     concurrent option-scoring queries into batched nn.Model forwards on
//     the shared internal/runtime worker pool.
//
//   - Server (http.go): the HTTP/JSON surface over both.
//
// Determinism contract: a served perplexity query returns the bit-identical
// loss train.Validate computes on the restored snapshot, at any batcher
// concurrency — queries touching a model are serialized through its
// executor, every forward depends only on its inputs (the runtime kernel
// contract), and batched scoring is row-local, so concurrency changes
// latency, never results (TestServedPerplexityBitIdentical,
// TestBatchedScoringMatchesEval).
//
// Memory contract: an open snapshot costs model-weight memory, not
// training memory — ckpt.ReadModel skips the OPTP optimizer section
// and gradient accumulators are freed after load, so Entry.ResidentBytes
// tracks memmodel.ServeBytes within 2% (TestResidentBytesMatchServeModel).
package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"apollo/internal/ckpt"
	"apollo/internal/data"
	"apollo/internal/memmodel"
	"apollo/internal/nn"
	"apollo/internal/obs"
	"apollo/internal/obs/memprof"
	"apollo/internal/tensor"
	"apollo/internal/train"
)

// Config parameterizes a Registry.
type Config struct {
	// Model is the architecture every served checkpoint must match (the
	// checkpoint's self-describing parameter table is verified against it
	// on load). Head count is not recoverable from weight shapes alone, so
	// the service cannot infer this from the file.
	Model nn.Config
	// Corpus supplies the fixed validation batches for perplexity queries
	// and the source for generated zero-shot/fine-tune tasks. It must be
	// built with the same seeds as the training run for served perplexity
	// to equal the trainer's (bench.NewCorpus(seed+17) for the CLIs). May
	// be nil for a logprob/zeroshot-items-only service.
	Corpus *data.Corpus
	// MaxModels bounds the snapshots resident at once; the least recently
	// acquired is evicted beyond it. Default 4.
	MaxModels int
	// MaxBatch caps how many scoring sequences coalesce into one batched
	// forward. Default 8.
	MaxBatch int
	// CacheEntries bounds the response cache (LRU by entry count) that
	// memoizes marshaled scoring responses keyed by (snapshot load sequence,
	// canonical query) — a hot reload bumps the sequence, so stale entries
	// die for free. 0 selects the default 4096; negative disables caching.
	CacheEntries int
	// MaxQueue bounds each snapshot executor's pending queue; submissions
	// beyond it are refused and surface as HTTP 429. 0 selects the default
	// 256; negative leaves the queue unbounded (the pre-admission behavior).
	MaxQueue int
	// ShedThreshold enables load shedding: when the queue-wait p95 over the
	// last ShedWindow exceeds it, new compute queries are refused with 429
	// (cache hits still serve) and /readyz reports backpressure. 0 disables.
	ShedThreshold time.Duration
	// ShedWindow is the rotation interval of the live p95 readout feeding
	// the shed decision. Default 1s.
	ShedWindow time.Duration
	// MaxBodyBytes caps accepted request bodies; larger requests answer 413
	// instead of letting a hostile client exhaust memory. Default 1 MiB.
	MaxBodyBytes int64
	// Metrics receives the service's counters and histograms — registry
	// cache behavior (hits/loads/hot-reloads/evictions, per-path generation
	// gauge), batcher coalescing (queue wait, batch size), the response cache
	// and per-endpoint HTTP request counts/latency — rendered at GET /metrics
	// (Prometheus text exposition) and GET /debug/vars (JSON). These handles
	// are the service's only counters (Loads, Evictions and the shed verdict
	// read them back), so nil selects a private registry, not "off": the
	// endpoints then show this service alone. Pass a shared registry to have
	// other subsystems (runtime pool, obs write errors) on the same page.
	// Results are never affected (timing-only).
	Metrics *obs.Registry
	// Tracer, when set, emits one JSONL span per HTTP request (request id,
	// endpoint, status, duration); the request id is echoed in the
	// X-Request-Id response header.
	Tracer *obs.Tracer
	// MemProf, when set, receives the service's memory ledger: the resident
	// snapshot bytes ("serve_snapshots", with a live memmodel.ServeBytes
	// prediction alongside) and the queued batcher buffers
	// ("batcher_buffers"). When nil, the registry creates its own profiler
	// against Metrics so the apollo_mem_bytes gauge family is always on
	// /metrics; pass an explicitly configured profiler to also get the
	// memory-event timeline, high-water heap capture, or a shared ledger with
	// other subsystems.
	MemProf *memprof.Profiler
	// Pprof exposes net/http/pprof handlers under /debug/pprof/ when true.
	Pprof bool
}

func (c Config) withDefaults() Config {
	if c.MaxModels < 1 {
		c.MaxModels = 4
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 8
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	}
	if c.ShedWindow <= 0 {
		c.ShedWindow = time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// Entry is one immutable open snapshot: the restored eval-only model plus
// identity. A hot reload never mutates an Entry — it builds a successor and
// swaps the registry pointer, so queries running on the old generation
// finish undisturbed.
type Entry struct {
	Path       string
	Optimizer  string
	Step       int
	LR         float64
	Generation int // 1-based reload count for this path
	LoadedAt   time.Time

	fi      os.FileInfo // stat at load time: mtime, size and (via os.SameFile) inode
	loadSeq int64       // registry-global load sequence: the response-cache invalidation tag
	model   *nn.Model
	batcher *batcher
	corpus  *data.Corpus
}

// ResidentBytes is the measured footprint of the open snapshot: the fp32
// weights actually held live. Gradients are freed on load and the optimizer
// sections were never decoded, so this is what serving costs.
func (e *Entry) ResidentBytes() int64 {
	var total int64
	for _, p := range e.model.Params().List() {
		total += 4 * int64(p.NumEl())
		if p.Grad != nil {
			total += 4 * int64(p.Grad.NumEl())
		}
	}
	return total
}

// PredictedBytes is the analytic counterpart of ResidentBytes: what
// memmodel.ServeBytes says this snapshot's architecture should cost resident.
// The memory contract keeps the two within 2%
// (TestResidentBytesMatchServeModel); the registry's memory ledger records
// their live delta on every sample.
func (e *Entry) PredictedBytes() int64 {
	params := e.model.Params().List()
	shapes := make([]memmodel.Shape, 0, len(params))
	for _, p := range params {
		shapes = append(shapes, memmodel.Shape{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols})
	}
	return int64(memmodel.ServeBytes(shapes))
}

// ModelConfig exposes the served architecture (not the live instance).
func (e *Entry) ModelConfig() nn.Config { return e.model.Cfg }

// Perplexity evaluates the corpus's fixed validation batches exactly as
// train.Validate does, serialized through the entry's executor. The result
// is bit-identical to the offline value at any concurrency.
func (e *Entry) Perplexity(batches, b, t int) (float64, error) {
	if e.corpus == nil {
		return 0, fmt.Errorf("serve: no corpus configured for perplexity queries")
	}
	// Bounded like the finetune knobs: the query runs exclusively on the
	// entry's executor, so an absurd size would wedge every other query on
	// this snapshot behind it (and a huge batch allocation cannot be
	// recovered once it OOMs).
	if batches < 1 || batches > 1024 {
		return 0, fmt.Errorf("serve: perplexity batches %d outside [1, 1024]", batches)
	}
	if b < 1 || b > 1024 || t < 1 || t > e.model.Cfg.MaxSeq {
		return 0, fmt.Errorf("serve: perplexity batch %d x seq %d invalid (batch <= 1024, seq <= MaxSeq %d)", b, t, e.model.Cfg.MaxSeq)
	}
	var loss float64
	err := e.batcher.exec(func(m *nn.Model) {
		loss = train.Validate(m, e.corpus, batches, b, t)
	})
	return loss, err
}

// LogProb scores one candidate continuation under the served model —
// eval.OptionLogProb's length-normalized rule, routed through the batcher
// so concurrent queries share forwards.
func (e *Entry) LogProb(context, option []int) (float64, error) {
	rq, err := e.newScoreReq(context, option)
	if err != nil {
		return 0, err
	}
	if err := e.batcher.score([]*scoreReq{rq}); err != nil {
		return 0, err
	}
	return rq.result, nil
}

// ZeroShot scores a multiple-choice item set and returns the accuracy under
// the likelihood-comparison protocol (eval.ZeroShotAccuracy). All options
// of all items are submitted to the batcher at once, so a single query
// already fills batched forwards.
func (e *Entry) ZeroShot(items []data.MCItem) (float64, error) {
	if len(items) == 0 {
		return 0, nil
	}
	var all []*scoreReq
	per := make([][]*scoreReq, len(items))
	for i, it := range items {
		if len(it.Options) == 0 {
			return 0, fmt.Errorf("serve: item %d has no options", i)
		}
		for _, opt := range it.Options {
			rq, err := e.newScoreReq(it.Context, opt)
			if err != nil {
				return 0, err
			}
			per[i] = append(per[i], rq)
			all = append(all, rq)
		}
	}
	if err := e.batcher.score(all); err != nil {
		return 0, err
	}
	correct := 0
	for i, it := range items {
		best, bi := math.Inf(-1), 0
		for o, rq := range per[i] {
			if rq.result > best {
				best, bi = rq.result, o
			}
		}
		if bi == it.Answer {
			correct++
		}
	}
	return float64(correct) / float64(len(items)), nil
}

// CloneModel returns an independent trainable copy of the served weights —
// the starting point for fine-tune-accuracy queries, which must never
// mutate the served snapshot. Weight reads race nothing: entries are
// immutable and forwards do not write weights.
func (e *Entry) CloneModel() *nn.Model {
	m := nn.NewModel(e.model.Cfg, tensor.NewRNG(1))
	src := e.model.Params().List()
	for i, p := range m.Params().List() {
		p.W.CopyFrom(src[i].W)
	}
	return m
}

// newScoreReq validates a query against the served architecture before it
// can reach the executor (a panic there would take the service down).
func (e *Entry) newScoreReq(context, option []int) (*scoreReq, error) {
	cfg := e.model.Cfg
	if n := len(context) + len(option) - 1; n > cfg.MaxSeq {
		return nil, fmt.Errorf("serve: query of %d tokens exceeds MaxSeq %d", n+1, cfg.MaxSeq)
	}
	for _, tok := range context {
		if tok < 0 || tok >= cfg.Vocab {
			return nil, fmt.Errorf("serve: context token %d outside vocab %d", tok, cfg.Vocab)
		}
	}
	for _, tok := range option {
		if tok < 0 || tok >= cfg.Vocab {
			return nil, fmt.Errorf("serve: option token %d outside vocab %d", tok, cfg.Vocab)
		}
	}
	return newScoreReq(context, option), nil
}

// slot is the registry's per-path cell: it serializes loads for one
// checkpoint path and holds the atomically swappable current entry.
type slot struct {
	mu      sync.Mutex
	cur     atomic.Pointer[Entry]
	gen     int
	lastUse int64 // registry LRU clock (under Registry.mu)
}

// Registry is the snapshot registry: path → open model, LRU-bounded, with
// hot reload on file change.
type Registry struct {
	cfg Config

	mu    sync.Mutex
	slots map[string]*slot
	clock int64

	loadSeq atomic.Int64 // response-cache invalidation tag source (Entry.loadSeq)

	m handles // shared by every entry's batcher and the response cache

	cache *responseCache // nil when CacheEntries < 0
	adm   *admission     // nil when ShedThreshold == 0
}

// handles is every obs handle the service counts into, created once by
// NewRegistry in the order /metrics lists them. They are the service's only
// counters: event sites call Inc/Add/Observe on them directly, and Loads,
// Evictions and the shed verdict read them back. Not here: the path-valued
// apollo_serve_snapshot_generation{checkpoint} gauges (looked up per load in
// Acquire) and the per-endpoint HTTP handles (Server.Handler, http.go).
type handles struct {
	hits, loads, reloads, evicts *obs.Counter // snapshot registry

	queueWait, batchSize    *obs.Histogram // batchers
	forwards, scored, execs *obs.Counter

	cacheHits, cacheMisses, cacheEvicts *obs.Counter // nil (no-op) when caching is disabled

	// apollo_serve_shed_total{reason}: each instance is created by its first
	// refusal, so a server that never shed exposes no such line.
	shedQueueFull, shedOverload func() *obs.Counter
}

// NewRegistry builds a registry for one served architecture.
func NewRegistry(cfg Config) (*Registry, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	r := &Registry{cfg: cfg.withDefaults(), slots: map[string]*slot{}}
	o, m := r.cfg.Metrics, &r.m
	m.hits = o.Counter("apollo_serve_registry_hits_total", "Acquires answered by the already-resident snapshot.")
	m.loads = o.Counter("apollo_serve_registry_loads_total", "Snapshot loads (initial opens + hot reloads).")
	m.reloads = o.Counter("apollo_serve_registry_hot_reloads_total", "Loads that replaced an older generation of the same checkpoint path.")
	m.evicts = o.Counter("apollo_serve_registry_evictions_total", "Snapshots evicted by the LRU bound.")
	o.GaugeFunc("apollo_serve_resident_models", "Snapshots currently resident in the LRU registry.",
		func() float64 { return float64(len(r.Entries())) })
	m.queueWait = o.Histogram("apollo_serve_batch_queue_wait_seconds",
		"Time a queued unit waited for its snapshot executor.", obs.LatencyBuckets)
	m.batchSize = o.Histogram("apollo_serve_batch_size",
		"Scoring sequences coalesced into one batched forward.", obs.SizeBuckets)
	m.forwards = o.Counter("apollo_serve_batched_forwards_total", "Batched forward passes run for scoring units.")
	m.scored = o.Counter("apollo_serve_scored_seqs_total", "Scoring units completed.")
	m.execs = o.Counter("apollo_serve_execs_total", "Whole-unit operations (perplexity, finetune) run on snapshot executors.")
	if r.cfg.ShedThreshold > 0 {
		r.adm = newAdmission(r.cfg.ShedThreshold, r.cfg.ShedWindow, m.queueWait, o)
	}
	if r.cfg.CacheEntries > 0 {
		m.cacheHits = o.Counter("apollo_serve_cache_hits_total", "Scoring queries answered from the response cache.")
		m.cacheMisses = o.Counter("apollo_serve_cache_misses_total", "Scoring queries that had to compute (and filled the cache).")
		m.cacheEvicts = o.Counter("apollo_serve_cache_evictions_total", "Response-cache entries evicted by the entry-count bound.")
		r.cache = newResponseCache(r.cfg.CacheEntries, m)
	}
	shed := func(reason string) func() *obs.Counter {
		return sync.OnceValue(func() *obs.Counter {
			return o.Counter("apollo_serve_shed_total", "Queries refused by admission control, by reason.",
				obs.Label{Key: "reason", Value: reason})
		})
	}
	m.shedQueueFull, m.shedOverload = shed("queue_full"), shed("overload")

	mp := r.cfg.MemProf
	if mp == nil {
		// Gauges only (no timeline, no capture — those need an explicit
		// MemProf): apollo_mem_bytes{component="serve_snapshots"} is on
		// /metrics by default.
		mp = memprof.New(memprof.Config{Registry: o})
	}
	// The ledger components pull through Entries(), so an eviction's bytes
	// vanish from the gauge the moment the slot leaves the map — the
	// eviction/GC accounting test pins exactly that.
	mp.Track(memprof.CompServeSnapshots, func() int64 {
		var total int64
		for _, e := range r.Entries() {
			total += e.ResidentBytes()
		}
		return total
	})
	mp.Track(memprof.CompBatcherBuffers, func() int64 {
		var total int64
		for _, e := range r.Entries() {
			total += e.batcher.queuedBytes()
		}
		return total
	})
	mp.PredictFunc(memprof.CompServeSnapshots, func() float64 {
		var total float64
		for _, e := range r.Entries() {
			total += float64(e.PredictedBytes())
		}
		return total
	})
	return r, nil
}

// Loads returns how many snapshot loads (initial + hot reloads) happened.
func (r *Registry) Loads() int64 { return r.m.loads.Value() }

// Evictions returns how many snapshots the LRU bound pushed out.
func (r *Registry) Evictions() int64 { return r.m.evicts.Value() }

// Acquire returns the current entry for a checkpoint path, loading it on
// first use and hot-reloading when the file on disk changed. Change
// detection compares the inode (os.SameFile) as well as mtime and size:
// the atomic temp+rename save always lands on a fresh inode, so two
// periodic saves of the same run are told apart even when they are
// byte-count-identical and within one coarse filesystem timestamp tick.
// The returned entry stays valid for the caller's query even if a newer
// generation or an eviction supersedes it.
func (r *Registry) Acquire(path string) (*Entry, error) {
	r.mu.Lock()
	s, ok := r.slots[path]
	if !ok {
		s = &slot{}
		r.slots[path] = s
		r.evictLocked(path)
	}
	r.clock++
	s.lastUse = r.clock
	r.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	fi, err := os.Stat(path)
	if err != nil {
		r.dropIfEmpty(path, s)
		return nil, err
	}
	if cur := s.cur.Load(); cur != nil && os.SameFile(cur.fi, fi) &&
		cur.fi.ModTime().Equal(fi.ModTime()) && cur.fi.Size() == fi.Size() {
		r.m.hits.Inc()
		return cur, nil
	}
	e, err := r.load(path, fi)
	if err != nil {
		r.dropIfEmpty(path, s)
		return nil, err
	}
	s.gen++
	e.Generation = s.gen
	r.m.loads.Inc()
	if s.gen > 1 {
		r.m.reloads.Inc()
	}
	r.cfg.Metrics.Gauge("apollo_serve_snapshot_generation",
		"Hot-reload generation of each resident snapshot path.",
		obs.Label{Key: "checkpoint", Value: path}).Set(float64(s.gen))
	if old := s.cur.Swap(e); old != nil {
		old.batcher.close()
	}
	// An eviction (another Acquire filling the registry past MaxModels) may
	// have removed this slot from the map while the load ran — nothing
	// would ever close the fresh entry's executor then. Detect the orphan
	// and drain it; the caller's queries get the retryable errClosed and
	// WithEntry lands on a clean reload.
	r.mu.Lock()
	alive := r.slots[path] == s
	r.mu.Unlock()
	if !alive {
		e.batcher.close()
	}
	return e, nil
}

// Entries snapshots the currently resident entries, most recently used
// first.
func (r *Registry) Entries() []*Entry {
	r.mu.Lock()
	type row struct {
		e  *Entry
		at int64
	}
	var rows []row
	for _, s := range r.slots {
		if e := s.cur.Load(); e != nil {
			rows = append(rows, row{e, s.lastUse})
		}
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].at > rows[j].at })
	out := make([]*Entry, len(rows))
	for i, rw := range rows {
		out[i] = rw.e
	}
	return out
}

// load opens a checkpoint through the weights-only path and builds the
// eval-only model.
func (r *Registry) load(path string, fi os.FileInfo) (*Entry, error) {
	snap, err := ckpt.LoadModelFile(path)
	if err != nil {
		// A vanished or unreadable path is the caller naming a checkpoint
		// the service cannot see (404, like a failed stat); anything else —
		// truncated file, bad magic, decode failure — is a file the service
		// owns but cannot serve (500).
		if errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrPermission) {
			return nil, err
		}
		return nil, internalErr(fmt.Errorf("serve: load %s: %w", path, err))
	}
	model := nn.NewModel(r.cfg.Model, tensor.NewRNG(1))
	if err := snap.InstallWeights(model.Params().List()); err != nil {
		return nil, internalErr(fmt.Errorf("serve: %s does not match the served architecture: %w", path, err))
	}
	// Eval-only: free the gradient accumulators; the snapshot's own weight
	// copies are garbage after InstallWeights. Resident cost from here on
	// is one set of fp32 weights (memmodel.ServeBytes).
	model.Params().FreeGrads()
	mq := r.cfg.MaxQueue
	if mq < 0 {
		mq = 0 // negative config = explicitly unbounded
	}
	return &Entry{
		Path:      path,
		Optimizer: snap.Optimizer,
		Step:      snap.Step,
		LR:        snap.LR,
		LoadedAt:  time.Now(),
		fi:        fi,
		loadSeq:   r.loadSeq.Add(1),
		model:     model,
		batcher:   newBatcher(model, r.cfg.MaxBatch, mq, &r.m),
		corpus:    r.cfg.Corpus,
	}, nil
}

// evictLocked drops least-recently-used slots beyond MaxModels, never the
// one just added. Callers hold r.mu.
func (r *Registry) evictLocked(keep string) {
	for len(r.slots) > r.cfg.MaxModels {
		victim, oldest := "", int64(math.MaxInt64)
		for p, s := range r.slots {
			if p != keep && s.lastUse < oldest {
				victim, oldest = p, s.lastUse
			}
		}
		if victim == "" {
			return
		}
		s := r.slots[victim]
		delete(r.slots, victim)
		if e := s.cur.Load(); e != nil {
			e.batcher.close()
		}
		r.m.evicts.Inc()
	}
}

// dropIfEmpty removes a slot that never loaded anything so failed paths
// don't occupy LRU capacity.
func (r *Registry) dropIfEmpty(path string, s *slot) {
	r.mu.Lock()
	if cur, ok := r.slots[path]; ok && cur == s && s.cur.Load() == nil {
		delete(r.slots, path)
	}
	r.mu.Unlock()
}

// WithEntry acquires the path and runs f on its entry, retrying once if the
// entry was superseded (hot reload or eviction) between acquire and use.
func (r *Registry) WithEntry(path string, f func(*Entry) error) error {
	for attempt := 0; ; attempt++ {
		e, err := r.Acquire(path)
		if err != nil {
			return err
		}
		err = f(e)
		if err == errClosed && attempt == 0 {
			continue
		}
		return err
	}
}
