// Package memprof is the live memory-accounting layer: where internal/memmodel
// predicts footprints analytically, memprof measures them on the running
// process and keeps the two comparable at every moment of a run.
//
// Three surfaces, all fed by one Profiler:
//
//   - A component-level byte ledger (weights, grads, optimizer state — total
//     and per ZeRO shard —, projector scratch, serve snapshot cache, batcher
//     buffers) exposed as the apollo_mem_bytes{component=...} gauge family,
//     next to sampled runtime.MemStats and best-effort proc/cgroup RSS
//     (apollo_mem_runtime_bytes{kind=...}).
//
//   - A memory timeline (one Sample per kind-"mem" line of the event stream
//     the profiler is handed — a run's events.jsonl, interleaved with its
//     step events) with high-water-mark tracking and the live
//     measured-vs-predicted delta per component, so a run records not just
//     what memory it used but how far it drifted from the analytic model
//     that claims to describe it.
//
//   - A heap flight recorder: automatic pprof heap-profile capture into the
//     run directory when a configurable high-water threshold is crossed or
//     when a caller (the training watchdog) asks for one on an alert.
//
// The PR 5 contracts carry over. Cost: a nil *Profiler is the disabled mode —
// every method is nil-receiver safe at one branch — and sampling happens off
// the hot path (the training loop samples after the step's wall time is
// already recorded, so telemetry timings never include the sampler).
// Determinism: the profiler only reads values the program computed anyway
// (byte counts, runtime counters); it feeds nothing back, so every bit-parity
// contract holds with memprof enabled (train's TestObserverParity).
package memprof

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"apollo/internal/obs"
)

// Canonical component names of the apollo_mem_bytes gauge family. Callers
// may track additional ad-hoc components; these are the ones the train and
// serve layers wire up.
const (
	CompWeights        = "weights"
	CompGrads          = "grads"
	CompOptimizerState = "optimizer_state"
	CompServeSnapshots = "serve_snapshots"
	CompBatcherBuffers = "batcher_buffers"
	CompDPGradLeaves   = "dp_grad_leaves"
	CompDPReplicas     = "dp_replicas"
	CompActivations    = "activations"
)

// ShardComponent names the per-shard optimizer-state component for one ZeRO
// shard ("optimizer_state_shard3").
func ShardComponent(shard int) string {
	return CompOptimizerState + "_shard" + strconv.Itoa(shard)
}

// Sample is one point of the memory timeline — the payload of a kind-"mem"
// event.
type Sample struct {
	UnixUS int64 `json:"unix_us"`
	// Step is the training step the sample was taken after (0 for samples
	// outside a step loop, e.g. the serve background sampler).
	Step int `json:"step,omitempty"`
	// Components is the byte ledger at sample time.
	Components map[string]int64 `json:"components"`
	// TotalBytes sums the ledger. Unlike heap/RSS it is derived purely from
	// tracked object sizes, so it is reproducible across hosts — the memory
	// regression gate (runlog.Diff) compares peak TotalBytes for that reason.
	TotalBytes int64 `json:"total_bytes"`
	// Predicted carries the analytic (memmodel) prediction per component,
	// for components a prediction was registered for.
	Predicted map[string]float64 `json:"predicted,omitempty"`
	// DeltaFrac is (measured − predicted) / predicted per predicted
	// component — the live measured-vs-memmodel drift.
	DeltaFrac map[string]float64 `json:"delta_frac,omitempty"`

	// runtime.MemStats extract.
	HeapInuse uint64 `json:"heap_inuse_bytes"`
	HeapAlloc uint64 `json:"heap_alloc_bytes"`
	HeapSys   uint64 `json:"heap_sys_bytes"`
	GCCycles  uint32 `json:"gc_cycles"`
	GCPauseNS uint64 `json:"gc_pause_total_ns"`

	// Best-effort process footprint: VmRSS from /proc/self/status and the
	// cgroup v2/v1 usage file. 0 when unavailable (non-Linux, masked proc).
	RSSBytes    int64 `json:"rss_bytes,omitempty"`
	CgroupBytes int64 `json:"cgroup_bytes,omitempty"`

	// HighWater marks samples that set a new TotalBytes maximum.
	HighWater bool `json:"high_water,omitempty"`
}

// Config parameterizes a Profiler. The zero value is usable: an unexported
// ledger with no gauges, no timeline and no capture.
type Config struct {
	// Registry, when set, receives the apollo_mem_bytes{component=...} gauge
	// family (one gauge per tracked component, read live at render time) and
	// the runtime gauges (heap, GC, RSS). One profiler per registry — the
	// gauges are registered once.
	Registry *obs.Registry
	// Out, when set, receives one kind-"mem" event per Sample — the same
	// stream the run's other emitters write.
	Out *obs.JSONLWriter
	// SampleEvery is the ObserveStep cadence: a sample every N observed
	// steps. <= 0 selects 1 (every step).
	SampleEvery int
	// HighWater, when > 0, is the heap-in-use byte threshold whose first
	// crossing triggers an automatic heap-profile capture (reason
	// "highwater") into ProfileDir.
	HighWater int64
	// ProfileDir is where captured heap profiles land
	// (heap-<reason>-<n>.pprof). Empty disables capture.
	ProfileDir string
	// MaxProfiles bounds how many heap profiles one profiler will write
	// (captures past it are dropped). <= 0 selects 4.
	MaxProfiles int
}

// Profiler is the live memory accountant. All methods are nil-receiver safe;
// Track/Set/Predict and Sample may be called concurrently.
type Profiler struct {
	cfg Config

	mu         sync.Mutex
	comps      map[string]func() int64 // pulled at sample/render time
	preds      map[string]func() float64
	peak       Sample
	havePeak   bool
	step       int64 // ObserveStep counter for the SampleEvery cadence
	profiles   int
	hwCaptured bool
}

// New builds a profiler. The registry's runtime gauges (heap, GC, RSS) are
// registered immediately; component gauges appear as components are tracked.
func New(cfg Config) *Profiler {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	if cfg.MaxProfiles <= 0 {
		cfg.MaxProfiles = 4
	}
	p := &Profiler{
		cfg:   cfg,
		comps: map[string]func() int64{},
		preds: map[string]func() float64{},
	}
	instrumentRuntime(cfg.Registry)
	return p
}

// instrumented guards the per-registry runtime gauges so that building two
// profilers against one registry (e.g. a CLI-owned profiler handed to a serve
// registry that would otherwise auto-create its own) stays panic-free.
var instrumented = struct {
	mu sync.Mutex
	m  map[*obs.Registry]bool
}{m: map[*obs.Registry]bool{}}

// instrumentRuntime exposes the sampled runtime counters on the registry.
// Each gauge reads MemStats at render time so a scrape is always current,
// whether or not anything is calling Sample. Idempotent per registry.
func instrumentRuntime(r *obs.Registry) {
	if r == nil {
		return
	}
	instrumented.mu.Lock()
	seen := instrumented.m[r]
	instrumented.m[r] = true
	instrumented.mu.Unlock()
	if seen {
		return
	}
	stat := func(pick func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return pick(&ms)
		}
	}
	const help = "Sampled runtime.MemStats and best-effort process footprint."
	r.GaugeFunc("apollo_mem_runtime_bytes", help,
		stat(func(ms *runtime.MemStats) float64 { return float64(ms.HeapInuse) }),
		obs.Label{Key: "kind", Value: "heap_inuse"})
	r.GaugeFunc("apollo_mem_runtime_bytes", help,
		stat(func(ms *runtime.MemStats) float64 { return float64(ms.HeapAlloc) }),
		obs.Label{Key: "kind", Value: "heap_alloc"})
	r.GaugeFunc("apollo_mem_runtime_bytes", help,
		stat(func(ms *runtime.MemStats) float64 { return float64(ms.HeapSys) }),
		obs.Label{Key: "kind", Value: "heap_sys"})
	r.GaugeFunc("apollo_mem_runtime_bytes", help,
		func() float64 { return float64(procRSS()) },
		obs.Label{Key: "kind", Value: "rss"})
	r.CounterFunc("apollo_mem_gc_cycles_total", "Completed GC cycles.",
		func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.NumGC)
		})
	r.CounterFunc("apollo_mem_gc_pause_ns_total", "Cumulative GC stop-the-world pause time.",
		func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.PauseTotalNs)
		})
}

// Track registers (or replaces) a pulled component: fn is evaluated at every
// Sample and at every /metrics render. fn must be safe for concurrent use.
func (p *Profiler) Track(name string, fn func() int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	_, existed := p.comps[name]
	p.comps[name] = fn
	p.mu.Unlock()
	if !existed {
		p.registerGauge(name)
	}
}

// Set registers (on first use) or replaces a component with a constant.
func (p *Profiler) Set(name string, bytes int64) {
	if p == nil {
		return
	}
	p.Track(name, func() int64 { return bytes })
}

// registerGauge exposes one component on the gauge family. Called exactly
// once per component name (guarded by the comps map), so the GaugeFunc
// duplicate panic cannot fire.
func (p *Profiler) registerGauge(name string) {
	if p.cfg.Registry == nil {
		return
	}
	p.cfg.Registry.GaugeFunc("apollo_mem_bytes",
		"Live component-level memory ledger (see internal/obs/memprof).",
		func() float64 { return float64(p.Read(name)) },
		obs.Label{Key: "component", Value: name})
}

// Read returns one component's current bytes (0 for unknown components).
func (p *Profiler) Read(name string) int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	fn := p.comps[name]
	p.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// Predict registers a constant analytic prediction for a component — the
// memmodel value its measurement is diffed against in every sample.
func (p *Profiler) Predict(name string, bytes float64) {
	if p == nil {
		return
	}
	p.PredictFunc(name, func() float64 { return bytes })
}

// PredictFunc registers a prediction evaluated at sample time, for
// components whose analytic value varies (serve: ServeBytes × resident
// count).
func (p *Profiler) PredictFunc(name string, fn func() float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.preds[name] = fn
	p.mu.Unlock()
}

// ObserveStep samples every SampleEvery-th call, tagging the sample with the
// step — the training loops' per-step hook.
func (p *Profiler) ObserveStep(step int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.step++
	due := p.step%int64(p.cfg.SampleEvery) == 0
	p.mu.Unlock()
	if due {
		p.Sample(step)
	}
}

// Sample takes one timeline point: evaluates the ledger and predictions,
// reads MemStats and proc/cgroup RSS, updates the high-water mark, emits the
// mem event, and — when the heap-in-use
// high-water threshold is first crossed — captures a heap profile.
func (p *Profiler) Sample(step int) Sample {
	if p == nil {
		return Sample{}
	}
	p.mu.Lock()
	comps := make(map[string]int64, len(p.comps))
	var total int64
	for name, fn := range p.comps {
		// fn may take other locks (serve registry) but must not call back
		// into the profiler's mutating methods; holding p.mu keeps the
		// sample atomic w.r.t. Track/Set.
		v := fn()
		comps[name] = v
		total += v
	}
	preds := maps.Clone(p.preds)
	p.mu.Unlock()

	s := Sample{
		UnixUS:     time.Now().UnixMicro(),
		Step:       step,
		Components: comps,
		TotalBytes: total,
	}
	for name, fn := range preds {
		pv := fn()
		if s.Predicted == nil {
			s.Predicted = map[string]float64{}
			s.DeltaFrac = map[string]float64{}
		}
		s.Predicted[name] = pv
		if pv > 0 {
			s.DeltaFrac[name] = (float64(comps[name]) - pv) / pv
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.HeapInuse = ms.HeapInuse
	s.HeapAlloc = ms.HeapAlloc
	s.HeapSys = ms.HeapSys
	s.GCCycles = ms.NumGC
	s.GCPauseNS = ms.PauseTotalNs
	s.RSSBytes = procRSS()
	s.CgroupBytes = cgroupUsage()

	p.mu.Lock()
	if !p.havePeak || s.TotalBytes > p.peak.TotalBytes {
		s.HighWater = true
		p.peak = s
		p.havePeak = true
	}
	capture := p.cfg.HighWater > 0 && !p.hwCaptured && int64(s.HeapInuse) >= p.cfg.HighWater
	if capture {
		p.hwCaptured = true
	}
	p.mu.Unlock()

	p.cfg.Out.Emit(obs.KindMem, s)
	if capture {
		p.CaptureHeapProfile("highwater")
	}
	return s
}

// Peak returns the sample with the highest ledger total seen so far (the
// zero Sample before any sampling).
func (p *Profiler) Peak() Sample {
	if p == nil {
		return Sample{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// CaptureHeapProfile writes the current heap profile into ProfileDir as
// heap-<reason>-<n>.pprof, bounded by MaxProfiles. The training watchdog's
// Emit hook calls this on alerts; the high-water crossing calls it
// internally. Returns the written path ("" when capture is disabled,
// exhausted, or fails — flight recording must never take the run down).
func (p *Profiler) CaptureHeapProfile(reason string) string {
	if p == nil || p.cfg.ProfileDir == "" {
		return ""
	}
	p.mu.Lock()
	if p.profiles >= p.cfg.MaxProfiles {
		p.mu.Unlock()
		return ""
	}
	p.profiles++
	n := p.profiles
	p.mu.Unlock()

	name := fmt.Sprintf("heap-%s-%d.pprof", sanitizeReason(reason), n)
	path := filepath.Join(p.cfg.ProfileDir, name)
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	// debug=0 writes the binary gzip format `go tool pprof` expects. A
	// failed write or close means a truncated profile: account for it
	// (apollo_obs_write_errors_total) and report no path rather than
	// pointing the flight record at a corrupt file.
	werr := pprof.Lookup("heap").WriteTo(f, 0)
	if cerr := obs.CountWriteError(f.Close()); werr != nil || cerr != nil {
		obs.CountWriteError(werr)
		return ""
	}
	return path
}

// StartSampler takes Sample(0) now and then every interval on a background
// goroutine — the serve-side cadence, where there is no step loop to hook.
// The returned stop function halts the goroutine and takes one last sample
// once it has (idempotent), so a session shorter than one interval still
// leaves two points on the timeline.
func (p *Profiler) StartSampler(every time.Duration) (stop func()) {
	if p == nil || every <= 0 {
		return func() {}
	}
	p.Sample(0)
	done, exited := make(chan struct{}), make(chan struct{})
	var once sync.Once
	go func() {
		defer close(exited)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				p.Sample(0)
			}
		}
	}()
	return func() {
		once.Do(func() {
			close(done)
			<-exited
			p.Sample(0)
		})
	}
}

func sanitizeReason(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('-')
		}
	}
	if b.Len() == 0 {
		return "manual"
	}
	return b.String()
}

// procRSS reads VmRSS from /proc/self/status (kB). Best-effort: 0 on any
// failure (non-Linux, masked procfs).
func procRSS() int64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		rest, ok := strings.CutPrefix(line, "VmRSS:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// cgroupUsage reads the container memory usage: cgroup v2's memory.current,
// falling back to v1's usage_in_bytes. Best-effort: 0 when absent.
func cgroupUsage() int64 {
	for _, path := range []string{
		"/sys/fs/cgroup/memory.current",
		"/sys/fs/cgroup/memory/memory.usage_in_bytes",
	} {
		blob, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(string(blob)), 10, 64)
		if err == nil {
			return v
		}
	}
	return 0
}
