package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"apollo/internal/data"
	"apollo/internal/eval"
	"apollo/internal/obs"
	"apollo/internal/optim"
	"apollo/internal/train"
)

// Server is the HTTP/JSON surface over a Registry. Endpoints (all JSON):
//
//	GET  /healthz        liveness
//	GET  /readyz         readiness: 503 until a snapshot has loaded, and during drain
//	GET  /v1/models      resident snapshots (LRU order) with footprints
//	POST /v1/perplexity  {checkpoint, batches, batch, seq}
//	POST /v1/logprob     {checkpoint, context, option}
//	POST /v1/zeroshot    {checkpoint, items:[...]} or {checkpoint, suite_seed, items_per_task}
//	POST /v1/finetune    {checkpoint, task:{...}, epochs, batch, lr, optimizer}
//
// Exact-value floats travel twice: as a JSON number and as a shortest
// round-trip string (loss_text and friends), so shell clients can compare
// served results bit-for-bit against offline values without a float parser.
type Server struct {
	reg      *Registry
	draining atomic.Bool
}

// NewServer wraps a registry.
func NewServer(reg *Registry) *Server { return &Server{reg: reg} }

// SetDraining flips the readiness state: while draining, GET /readyz
// answers 503 so load balancers stop routing new traffic, while in-flight
// requests (and /healthz liveness) keep working. cmd/apollo-serve sets it
// on SIGINT/SIGTERM before calling http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler returns the routed HTTP handler. Besides the query API it serves
// the observability surface: GET /metrics (Prometheus text exposition over
// Config.Metrics) and — when Config.Pprof is set — net/http/pprof under
// /debug/pprof/. Every API endpoint is wrapped in the metrics/tracing
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.wrap("/healthz", s.handleHealth))
	mux.HandleFunc("GET /readyz", s.wrap("/readyz", s.handleReady))
	mux.HandleFunc("GET /v1/models", s.wrap("/v1/models", s.handleModels))
	mux.HandleFunc("POST /v1/perplexity", s.wrap("/v1/perplexity", s.handlePerplexity))
	mux.HandleFunc("POST /v1/logprob", s.wrap("/v1/logprob", s.handleLogProb))
	mux.HandleFunc("POST /v1/zeroshot", s.wrap("/v1/zeroshot", s.handleZeroShot))
	mux.HandleFunc("POST /v1/finetune", s.wrap("/v1/finetune", s.handleFineTune))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.reg.cfg.Pprof {
		obs.RegisterPprof(mux)
	}
	return mux
}

// wrap is the per-endpoint observability middleware: request counter,
// error counter (status >= 400), latency histogram, and one trace span per
// request whose trace ID is echoed as X-Request-Id.
func (s *Server) wrap(path string, h http.HandlerFunc) http.HandlerFunc {
	o, tracer := s.reg.cfg.Metrics, s.reg.cfg.Tracer
	lbl := obs.Label{Key: "path", Value: path}
	reqs := o.Counter("apollo_http_requests_total", "HTTP requests served, by endpoint.", lbl)
	errs := o.Counter("apollo_http_errors_total", "HTTP requests answered with status >= 400, by endpoint.", lbl)
	lat := o.Histogram("apollo_http_request_seconds", "HTTP request latency, by endpoint.", obs.LatencyBuckets, lbl)
	return func(w http.ResponseWriter, r *http.Request) {
		span := tracer.Start("http " + path)
		if id := span.TraceID(); id != "" {
			w.Header().Set("X-Request-Id", id)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		lat.Observe(time.Since(start).Seconds())
		reqs.Inc()
		if sw.code >= 400 {
			errs.Inc()
		}
		span.Attr("status", sw.code).End()
	}
}

// statusWriter captures the response status for the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.cfg.Metrics.RenderPrometheus(w)
}

// NewHTTPServer wraps h in an http.Server with production traffic
// hardening: header/read/idle timeouts bound slow or idle clients, and the
// write timeout is generous because finetune queries synchronously train a
// model clone before answering. Callers own Shutdown (see cmd/apollo-serve
// for the SIGINT/SIGTERM draining wiring).
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// ListenAndServe builds a registry over cfg, preloads the given checkpoint
// paths, and serves the API on addr until the listener fails. The server
// carries NewHTTPServer's timeouts; for graceful shutdown build the pieces
// explicitly and call Shutdown on the returned server.
func ListenAndServe(addr string, cfg Config, paths []string) error {
	reg, err := NewRegistry(cfg)
	if err != nil {
		return err
	}
	for _, p := range paths {
		if _, err := reg.Acquire(p); err != nil {
			return err
		}
	}
	return NewHTTPServer(addr, NewServer(reg).Handler()).ListenAndServe()
}

// ExactFloat renders a float as its shortest round-trip decimal — the
// loss_text/accuracy_text contract shared by the server and the CLIs, so
// shell clients can compare served results bit-for-bit without a float
// parser.
func ExactFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before touching the ResponseWriter: an unencodable value must
	// surface as a 500, not a 200 with an empty body.
	blob, err := json.Marshal(v)
	if err != nil {
		blob, _ = json.Marshal(errorResponse{Error: fmt.Sprintf("serve: encode response: %v", err)})
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(blob)
	w.Write([]byte("\n"))
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeBlob sends an already-marshaled response body — the cache-hit path.
// Byte-compatible with writeJSON: same Content-Type, same trailing newline,
// so a cached response is char-for-char what the first compute sent.
func writeBlob(w http.ResponseWriter, status int, blob []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(blob)
	w.Write([]byte("\n"))
}

// writeQueryError maps a query error to its status (status.go) and answers.
// 429s carry Retry-After (one shed window, the soonest the verdict can flip)
// and count into apollo_serve_shed_total by reason.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	status := httpStatus(err)
	if status == http.StatusTooManyRequests {
		retry := int(math.Ceil(s.reg.cfg.ShedWindow.Seconds()))
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		shed := s.reg.m.shedQueueFull
		if errors.Is(err, errShedOverload) {
			shed = s.reg.m.shedOverload
		}
		shed().Inc()
	}
	writeError(w, status, err)
}

// decodeBody reads a JSON request body capped at Config.MaxBodyBytes — an
// oversized body answers 413 instead of buffering without bound.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.reg.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
		return false
	}
	return true
}

// serveQuery runs one cacheable scoring query: answer from the response
// cache when the (snapshot, canonical query) pair is resident, otherwise
// pass admission control, compute, and fill the cache with the marshaled
// bytes. The admission check sits after the cache lookup on purpose — an
// overloaded server keeps answering everything it already knows.
func (s *Server) serveQuery(w http.ResponseWriter, checkpoint, canon string, compute func(e *Entry) (any, error)) {
	cache := s.reg.cache
	err := s.reg.WithEntry(checkpoint, func(e *Entry) error {
		if cache != nil {
			if blob, ok := cache.get(entryKey(e, canon)); ok {
				w.Header().Set("X-Cache", "hit")
				writeBlob(w, http.StatusOK, blob)
				return nil
			}
		}
		if !s.reg.adm.allow() {
			return errShedOverload
		}
		v, err := compute(e)
		if err != nil {
			return err
		}
		blob, err := json.Marshal(v)
		if err != nil {
			return internalErr(fmt.Errorf("serve: encode response: %w", err))
		}
		if cache != nil {
			cache.put(entryKey(e, canon), blob)
			w.Header().Set("X-Cache", "miss")
		}
		writeBlob(w, http.StatusOK, blob)
		return nil
	})
	if err != nil {
		s.writeQueryError(w, err)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReady answers readiness probes: 200 once the registry has loaded at
// least one snapshot and the server is not draining, 503 otherwise. Distinct
// from /healthz liveness — a server warming up or draining is alive but must
// not receive new traffic.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	shedding := s.reg.adm.Shedding()
	loads := s.reg.Loads()
	// Shedding flips readiness too: a load balancer that steers new
	// connections elsewhere is the gentlest form of backpressure, and the
	// verdict decays within one shed window once the queue drains (Shedding
	// rotates the signal window, so probes alone are enough to recover).
	ready := loads > 0 && !draining && !shedding
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready": ready, "loads": loads, "draining": draining, "shedding": shedding,
	})
}

type modelInfo struct {
	Checkpoint     string    `json:"checkpoint"`
	Optimizer      string    `json:"optimizer"`
	Step           int       `json:"step"`
	Generation     int       `json:"generation"`
	LoadedAt       time.Time `json:"loaded_at"`
	ResidentBytes  int64     `json:"resident_bytes"`
	PredictedBytes int64     `json:"predicted_bytes"` // memmodel.ServeBytes
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.Entries()
	out := struct {
		Models    []modelInfo `json:"models"`
		Loads     int64       `json:"loads"`
		Evictions int64       `json:"evictions"`
	}{Models: []modelInfo{}, Loads: s.reg.Loads(), Evictions: s.reg.Evictions()}
	for _, e := range entries {
		out.Models = append(out.Models, modelInfo{
			Checkpoint:     e.Path,
			Optimizer:      e.Optimizer,
			Step:           e.Step,
			Generation:     e.Generation,
			LoadedAt:       e.LoadedAt,
			ResidentBytes:  e.ResidentBytes(),
			PredictedBytes: e.PredictedBytes(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

type perplexityRequest struct {
	Checkpoint string `json:"checkpoint"`
	Batches    int    `json:"batches"`
	Batch      int    `json:"batch"`
	Seq        int    `json:"seq"`
}

type perplexityResponse struct {
	Checkpoint string  `json:"checkpoint"`
	Step       int     `json:"step"`
	Optimizer  string  `json:"optimizer"`
	Batches    int     `json:"batches"`
	Loss       float64 `json:"loss"`
	LossText   string  `json:"loss_text"`
	PPL        float64 `json:"ppl"`
}

func (s *Server) handlePerplexity(w http.ResponseWriter, r *http.Request) {
	var req perplexityRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Negative dimensions would sail past the == 0 default substitutions
	// below; reject them by name before any checkpoint work happens.
	if req.Batches < 0 || req.Batch < 0 || req.Seq < 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: batches %d, batch %d and seq %d must be non-negative (0 selects the default)",
				req.Batches, req.Batch, req.Seq))
		return
	}
	if req.Batches == 0 {
		req.Batches = 4
	}
	if req.Batch == 0 {
		req.Batch = 8
	}
	if req.Seq == 0 {
		req.Seq = 32
	}
	// Canonicalized after default substitution, so an explicit {4, 8, 32}
	// and an all-defaults query share one cache entry.
	canon := fmt.Sprintf("ppl|%d|%d|%d", req.Batches, req.Batch, req.Seq)
	s.serveQuery(w, req.Checkpoint, canon, func(e *Entry) (any, error) {
		loss, err := e.Perplexity(req.Batches, req.Batch, req.Seq)
		if err != nil {
			return nil, err
		}
		resp := perplexityResponse{
			Checkpoint: e.Path, Step: e.Step, Optimizer: e.Optimizer,
			Batches: req.Batches, Loss: loss, LossText: ExactFloat(loss),
		}
		// ppl is a display value and saturates rather than carrying +Inf
		// (which JSON cannot encode); loss/loss_text stay the exact contract.
		resp.PPL = math.Exp(loss)
		if math.IsInf(resp.PPL, 1) {
			resp.PPL = math.MaxFloat64
		}
		return resp, nil
	})
}

type logProbRequest struct {
	Checkpoint string `json:"checkpoint"`
	Context    []int  `json:"context"`
	Option     []int  `json:"option"`
}

type logProbResponse struct {
	Checkpoint  string  `json:"checkpoint"`
	Step        int     `json:"step"`
	LogProb     float64 `json:"logprob"`
	LogProbText string  `json:"logprob_text"`
}

func (s *Server) handleLogProb(w http.ResponseWriter, r *http.Request) {
	var req logProbRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.serveQuery(w, req.Checkpoint, logProbCanon(req.Context, req.Option), func(e *Entry) (any, error) {
		lp, err := e.LogProb(req.Context, req.Option)
		if err != nil {
			return nil, err
		}
		return logProbResponse{Checkpoint: e.Path, Step: e.Step, LogProb: lp, LogProbText: ExactFloat(lp)}, nil
	})
}

type zeroShotItem struct {
	Context []int   `json:"context"`
	Options [][]int `json:"options"`
	Answer  int     `json:"answer"`
}

type zeroShotRequest struct {
	Checkpoint string         `json:"checkpoint"`
	Items      []zeroShotItem `json:"items"`
	// SuiteSeed > 0 evaluates the generated Table-4 suite instead of
	// explicit items (requires a configured corpus).
	SuiteSeed    uint64 `json:"suite_seed"`
	ItemsPerTask int    `json:"items_per_task"`
}

type zeroShotResponse struct {
	Checkpoint   string             `json:"checkpoint"`
	Step         int                `json:"step"`
	Accuracy     float64            `json:"accuracy"`
	AccuracyText string             `json:"accuracy_text"`
	Tasks        []eval.SuiteResult `json:"tasks,omitempty"`
}

// logProbCanon renders the canonical cache encoding of a logprob query.
func logProbCanon(context, option []int) string {
	var b strings.Builder
	b.WriteString("lp|")
	canonInts(&b, context)
	b.WriteByte('|')
	canonInts(&b, option)
	return b.String()
}

// zeroShotCanon renders the canonical cache encoding of a zero-shot query.
// Every field is length-prefixed or delimited so distinct queries cannot
// collide.
func zeroShotCanon(req *zeroShotRequest) string {
	var b strings.Builder
	if req.SuiteSeed > 0 {
		fmt.Fprintf(&b, "zs|suite|%d|%d", req.SuiteSeed, req.ItemsPerTask)
		return b.String()
	}
	b.WriteString("zs|items|")
	for _, it := range req.Items {
		canonInts(&b, it.Context)
		b.WriteByte('>')
		b.WriteString(strconv.Itoa(len(it.Options)))
		b.WriteByte(':')
		for _, opt := range it.Options {
			canonInts(&b, opt)
			b.WriteByte(';')
		}
		b.WriteString(strconv.Itoa(it.Answer))
		b.WriteByte('#')
	}
	return b.String()
}

func (s *Server) handleZeroShot(w http.ResponseWriter, r *http.Request) {
	var req zeroShotRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.serveQuery(w, req.Checkpoint, zeroShotCanon(&req), func(e *Entry) (any, error) {
		resp := zeroShotResponse{Checkpoint: e.Path, Step: e.Step}
		if req.SuiteSeed > 0 {
			if s.reg.cfg.Corpus == nil {
				return nil, fmt.Errorf("serve: suite queries need a configured corpus")
			}
			// Bounded like every other generation knob: item generation runs
			// on the handler goroutine before any batcher check could bite.
			if req.ItemsPerTask < 0 || req.ItemsPerTask > 1000 {
				return nil, fmt.Errorf("serve: items_per_task %d outside [0, 1000]", req.ItemsPerTask)
			}
			tasks, err := eval.ZeroShotSuite(s.reg.cfg.Corpus.Source(), req.SuiteSeed, req.ItemsPerTask, e.ZeroShot)
			if err != nil {
				return nil, err
			}
			resp.Tasks, resp.Accuracy = tasks, eval.Average(tasks)
			resp.AccuracyText = ExactFloat(resp.Accuracy)
			return resp, nil
		}
		if len(req.Items) == 0 {
			return nil, fmt.Errorf("serve: zeroshot needs items or suite_seed")
		}
		items := make([]data.MCItem, len(req.Items))
		for i, it := range req.Items {
			if it.Answer < 0 || it.Answer >= len(it.Options) {
				return nil, fmt.Errorf("serve: item %d answer %d out of range", i, it.Answer)
			}
			items[i] = data.MCItem{Context: it.Context, Options: it.Options, Answer: it.Answer}
		}
		acc, err := e.ZeroShot(items)
		if err != nil {
			return nil, err
		}
		resp.Accuracy = acc
		resp.AccuracyText = ExactFloat(acc)
		return resp, nil
	})
}

type fineTuneTask struct {
	Name    string  `json:"name"`
	Train   int     `json:"train"`
	Test    int     `json:"test"`
	CtxLen  int     `json:"ctx_len"`
	Classes int     `json:"classes"`
	Noise   float64 `json:"noise"`
	Seed    uint64  `json:"seed"`
}

type fineTuneRequest struct {
	Checkpoint string       `json:"checkpoint"`
	Task       fineTuneTask `json:"task"`
	Epochs     int          `json:"epochs"`
	Batch      int          `json:"batch"`
	LR         float64      `json:"lr"`
	// Optimizer is "SGD" (default — the Kumar et al. fine-tuning protocol
	// the paper's comparisons follow) or "AdamW".
	Optimizer string `json:"optimizer"`
	Seed      uint64 `json:"seed"`
}

type fineTuneResponse struct {
	Checkpoint   string  `json:"checkpoint"`
	Step         int     `json:"step"`
	Task         string  `json:"task"`
	Accuracy     float64 `json:"accuracy"`
	AccuracyText string  `json:"accuracy_text"`
}

func (s *Server) handleFineTune(w http.ResponseWriter, r *http.Request) {
	var req fineTuneRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if s.reg.cfg.Corpus == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: finetune queries need a configured corpus"))
		return
	}
	t := req.Task
	if t.Train <= 0 || t.Test <= 0 || t.Train+t.Test > 10000 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: task needs 0 < train+test <= 10000"))
		return
	}
	if t.Classes < 2 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: task needs >= 2 classes"))
		return
	}
	if t.CtxLen < 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: task needs ctx_len >= 1"))
		return
	}
	if req.Epochs < 0 || req.Epochs > 20 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: epochs must be in [0, 20]"))
		return
	}
	// A negative batch would slip past FineTune's own == 0 defaulting the
	// same way negative perplexity dims used to; bound it like epochs.
	if req.Batch < 0 || req.Batch > 1024 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: finetune batch %d outside [0, 1024] (0 selects the default)", req.Batch))
		return
	}
	// Fine-tune runs are never cached (callers vary seeds expecting fresh
	// training), but they are the heaviest compute the service does, so they
	// respect admission control like any cache miss.
	if !s.reg.adm.allow() {
		s.writeQueryError(w, errShedOverload)
		return
	}
	var resp fineTuneResponse
	err := s.reg.WithEntry(req.Checkpoint, func(e *Entry) error {
		if t.CtxLen+1 > e.model.Cfg.MaxSeq {
			return fmt.Errorf("serve: ctx_len %d exceeds MaxSeq %d", t.CtxLen, e.model.Cfg.MaxSeq)
		}
		lr := req.LR
		if lr == 0 { //apollo:exactfloat zero is the unset-field sentinel; default fills only untouched fields
			lr = 1e-3
		}
		var opt optim.Optimizer
		switch req.Optimizer {
		case "", "SGD":
			opt = optim.NewSGD(optim.Hyper{LR: lr}, 0.9)
		case "AdamW":
			opt = optim.NewAdamW(optim.Hyper{LR: lr})
		default:
			return fmt.Errorf("serve: unknown finetune optimizer %q (SGD or AdamW)", req.Optimizer)
		}
		task := data.GenerateFTTask(s.reg.cfg.Corpus.Source(), data.FTTaskConfig{
			Name: t.Name, Train: t.Train, Test: t.Test, CtxLen: t.CtxLen,
			Classes: t.Classes, Noise: t.Noise, Seed: t.Seed,
		})
		// Fine-tuning trains a clone — the served snapshot is immutable and
		// the clone runs off-executor, so long tuning jobs never block
		// perplexity traffic on the same model.
		clone := e.CloneModel()
		acc := train.FineTune(clone, opt, task, train.FineTuneConfig{
			Epochs: req.Epochs, Batch: req.Batch, Seed: req.Seed,
		})
		resp = fineTuneResponse{
			Checkpoint: e.Path, Step: e.Step, Task: task.Cfg.Name,
			Accuracy: acc, AccuracyText: ExactFloat(acc),
		}
		return nil
	})
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
