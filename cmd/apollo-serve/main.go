// Command apollo-serve is the checkpoint-streamed evaluation service: it
// loads internal/ckpt snapshots through the weights-only read path and
// answers perplexity, option-logprob, zero-shot and fine-tune queries over
// HTTP/JSON without re-running training.
//
// Usage:
//
//	apollo-serve -size 60M -seed 1 -addr :8080 run.ckpt          # serve one snapshot
//	apollo-serve -size 60M -addr :8080 a.ckpt b.ckpt             # several (LRU-cached)
//	apollo-serve -size 60M -seed 1 -offline run.ckpt             # print the exact offline
//	                                                             # train.Validate loss, no server
//
// -size and -seed must match the apollo-pretrain flags that produced the
// checkpoint: the architecture (head count is not recoverable from the
// weight shapes) and the corpus seeds (corpus = seed+17, as in
// apollo-pretrain) — then a served perplexity query is bit-identical to the
// trainer's own validation loss. Checkpoints given on the command line are
// preloaded; any other path can be queried by naming it in a request's
// "checkpoint" field. Every request re-stats its file, so pointing a query
// at a live training run's -save path serves the latest periodic snapshot
// (hot reload; in-flight queries finish on the old weights).
//
// -offline prints the loss train.Validate computes on the restored
// snapshot, as a shortest-round-trip decimal on one line — the reference
// value CI compares served loss_text responses against, bit for bit.
//
// Production traffic: scoring responses are cached (-cache-entries, LRU,
// invalidated by hot reload), executor queues are bounded (-max-queue) and
// load shedding (-shed-ms) answers 429 with Retry-After once the queue-wait
// p95 over -shed-window-ms crosses the threshold; /readyz reports
// backpressure while shedding. -drain-wait holds the listener open after a
// shutdown signal flips /readyz to 503, giving load balancers a
// deregistration window. Bodies over -max-body-bytes answer 413.
//
// GET /metrics is always on; -events FILE appends the service's one event
// stream as JSONL — a "span" line per finished request span and a "mem"
// line per memory sample (at start, every -mem-every, and at exit).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"apollo/internal/bench"
	"apollo/internal/ckpt"
	"apollo/internal/nn"
	"apollo/internal/obs"
	"apollo/internal/obs/memprof"
	rt "apollo/internal/runtime"
	"apollo/internal/serve"
	"apollo/internal/tensor"
	"apollo/internal/train"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		size      = flag.String("size", "60M", "proxy size the checkpoints were trained at: 60M 130M 350M 1B 7B")
		seed      = flag.Uint64("seed", 1, "run seed of the training run (corpus = seed+17)")
		maxModels = flag.Int("max-models", 4, "snapshots resident at once (LRU beyond)")
		maxBatch  = flag.Int("max-batch", 8, "scoring sequences coalesced per forward")
		cacheEnt  = flag.Int("cache-entries", 4096, "response-cache entries (LRU beyond; 0 disables caching)")
		maxQueue  = flag.Int("max-queue", 256, "queued units per snapshot (one per zero-shot option or perplexity query) at which new queries answer 429; below it a query joins whole (0 = unbounded)")
		shedMS    = flag.Float64("shed-ms", 0, "shed new compute with 429 when queue-wait p95 exceeds this many ms (0 disables)")
		shedWinMS = flag.Float64("shed-window-ms", 1000, "rolling window feeding the shed p95")
		maxBody   = flag.Int64("max-body-bytes", 1<<20, "request bodies over this answer 413")
		drainWait = flag.Duration("drain-wait", 0, "pause between flipping /readyz to 503 and closing the listener, so load balancers deregister first")
		workers   = flag.Int("workers", 0, "tensor worker pool size (0 = GOMAXPROCS)")
		offline   = flag.Bool("offline", false, "print the exact offline validation loss for a checkpoint and exit")
		batches   = flag.Int("batches", 4, "validation batches (offline mode)")
		batch     = flag.Int("batch", 0, "validation batch size (offline mode; 0 = proxy default)")
		seq       = flag.Int("seq", 0, "validation sequence length (offline mode; 0 = proxy default)")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		eventsOut = flag.String("events", "", "append the service's event stream — request spans (kind \"span\") and memory-timeline samples (kind \"mem\") — to this JSONL file")
		memEvery  = flag.Duration("mem-every", 10*time.Second, "wall-clock stride of the background memory sampler")
		memHW     = flag.Int64("mem-highwater", 0, "heap high-water mark in bytes: crossing it captures a heap profile into -mem-profile-dir (0 disables)")
		memProf   = flag.String("mem-profile-dir", ".", "directory for high-water heap profiles")
	)
	flag.Parse()

	if *workers > 0 {
		rt.SetWorkers(*workers)
	}
	proxy, err := bench.ProxyByName(*size)
	if err != nil {
		fail(err)
	}
	corpus, err := bench.NewCorpus(*seed + 17)
	if err != nil {
		fail(err)
	}

	if *offline {
		if flag.NArg() != 1 {
			fail(fmt.Errorf("-offline needs exactly one checkpoint path"))
		}
		b, t := *batch, *seq
		if b == 0 {
			b = proxy.Batch
		}
		if t == 0 {
			t = proxy.Seq
		}
		snap, err := ckpt.LoadModelFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		model := nn.NewModel(proxy.Model, tensor.NewRNG(1))
		if err := snap.InstallWeights(model.Params().List()); err != nil {
			fail(err)
		}
		loss := train.Validate(model, corpus, *batches, b, t)
		fmt.Println(serve.ExactFloat(loss))
		return
	}

	metrics := obs.NewRegistry()
	rt.InstrumentDefault(metrics)
	obs.InstrumentWriteErrors(metrics)
	// One event stream for the process: request spans and the memory
	// timeline are two kinds on it. Without -events the writer is nil —
	// tracing is off and the profiler keeps its gauges live with no timeline.
	var events *obs.JSONLWriter
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(err)
		}
		events = obs.NewJSONLWriter(f)
		// Flush failures must surface: count the close error into
		// apollo_obs_write_errors_total instead of dropping it.
		defer func() { obs.CountWriteError(events.Close()) }()
	}
	tracer := obs.NewTracer(events)

	// Live memory accounting: component gauges on /metrics always; the
	// timeline and heap flight recorder when asked for. The registry wires in
	// its serve_snapshots / batcher_buffers components via Config.MemProf.
	mp := memprof.New(memprof.Config{
		Registry:   metrics,
		Out:        events,
		HighWater:  *memHW,
		ProfileDir: *memProf,
	})

	// Flag semantics use 0 for "off"; the Config uses 0 for "default", so
	// off maps to the negative sentinel.
	cacheEntries, queueBound := *cacheEnt, *maxQueue
	if cacheEntries == 0 {
		cacheEntries = -1
	}
	if queueBound == 0 {
		queueBound = -1
	}
	cfg := serve.Config{
		Model: proxy.Model, Corpus: corpus,
		MaxModels: *maxModels, MaxBatch: *maxBatch,
		CacheEntries: cacheEntries, MaxQueue: queueBound,
		ShedThreshold: time.Duration(*shedMS * float64(time.Millisecond)),
		ShedWindow:    time.Duration(*shedWinMS * float64(time.Millisecond)),
		MaxBodyBytes:  *maxBody,
		Metrics:       metrics, Tracer: tracer, Pprof: *pprofOn,
		MemProf: mp,
	}
	reg, err := serve.NewRegistry(cfg)
	if err != nil {
		fail(err)
	}
	// The sampler starts once the registry has put its components on the
	// ledger; it samples at start, every -mem-every, and at exit.
	if *memEvery > 0 {
		stop := mp.StartSampler(*memEvery)
		defer stop()
	}
	fmt.Printf("apollo-serve: proxy-%s architecture, %d workers, up to %d resident snapshots, listening on %s\n",
		proxy.Name, rt.Workers(), *maxModels, *addr)
	for _, p := range flag.Args() {
		fmt.Printf("  preloading %s\n", p)
		if _, err := reg.Acquire(p); err != nil {
			fail(err)
		}
	}

	// Serve until the listener fails or a SIGINT/SIGTERM arrives; on signal,
	// flip /readyz to 503 so load balancers stop routing here, then stop
	// accepting and drain in-flight queries before exiting.
	api := serve.NewServer(reg)
	srv := serve.NewHTTPServer(*addr, api.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
		stop()
		api.SetDraining(true)
		fmt.Println("apollo-serve: shutdown signal, draining in-flight queries")
		// Keep the listener open while /readyz answers 503 so load
		// balancers deregister before connections start being refused.
		if *drainWait > 0 {
			time.Sleep(*drainWait)
		}
		drain, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(drain); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
