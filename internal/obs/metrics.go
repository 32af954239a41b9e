// Package obs is the zero-dependency observability layer shared by every
// subsystem: an atomic metrics registry (counters, gauges, fixed-bucket
// histograms with rank-exact quantile readout) rendered in Prometheus text
// exposition, a lightweight span/trace facility emitting a JSONL event
// stream, per-step training telemetry, and opt-in net/http/pprof wiring.
//
// Cost contract: instrumentation must never tax an uninstrumented hot path
// with more than one predictable branch per event. Every mutating method is
// nil-receiver safe — a nil *Registry hands out nil *Counter/*Gauge/
// *Histogram handles, and Inc/Set/Observe on a nil handle is a single
// `if x == nil` branch. Code therefore instruments unconditionally and the
// caller decides by wiring a registry or not.
//
// Determinism contract: obs records wall time and event counts only; it
// never touches model state, RNG cursors or kernel scheduling, so enabling
// any of it leaves every bit-parity contract (`-replicas N` ≡ `-replicas 1`,
// served == offline) intact.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one constant key=value pair attached to a metric instance.
type Label struct {
	Key, Value string
}

// LatencyBuckets spans 100µs … 10s exponentially — the default layout for
// request/queue-wait latency histograms.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets covers small integer sizes (batch rows, chunk counts) in
// powers of two.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Registry holds metric families and renders them (expo.go). The zero
// registry from NewRegistry is ready to use; a nil *Registry is the
// disabled mode — every constructor returns a nil handle.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// family groups every instance sharing one metric name: they must agree on
// type and help, and histograms on bucket layout.
type family struct {
	name, help, typ string
	buckets         []float64
	instances       []instance
}

// instance is one concrete metric with its bound label set.
type instance interface {
	labelSet() []Label
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup finds or creates the family, enforcing name/type/help agreement,
// then returns the existing instance with the identical label set (nil if
// none). Callers hold r.mu across lookup and the insert that follows, so
// get-or-create is atomic.
func (r *Registry) lookup(name, help, typ string, buckets []float64, labels []Label) (*family, instance) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ, buckets: buckets}
		r.families[name] = fam
		r.order = append(r.order, name)
		return fam, nil
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, fam.typ, typ))
	}
	if typ == "histogram" && !equalBuckets(fam.buckets, buckets) {
		panic(fmt.Sprintf("obs: metric %q requested with a different bucket layout", name))
	}
	for _, in := range fam.instances {
		if equalLabels(in.labelSet(), labels) {
			return fam, in
		}
	}
	return fam, nil
}

// Counter returns the counter with this name and label set, creating it on
// first use. Nil-safe: a nil registry returns a nil (disabled) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, in := r.lookup(name, help, "counter", nil, labels)
	if in != nil {
		return in.(*Counter)
	}
	c := &Counter{labels: labels}
	fam.instances = append(fam.instances, c)
	return c
}

// CounterFunc registers a counter whose value is read from fn at render
// time — for monotonic counts something else already tracks (the obs
// write-error total). fn must be monotonically non-decreasing for the
// exposition to stay a valid counter. Nil-safe no-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, in := r.lookup(name, help, "counter", nil, labels)
	if in != nil {
		panic(fmt.Sprintf("obs: counter %q%v already registered", name, labels))
	}
	fam.instances = append(fam.instances, &funcCounter{labels: labels, fn: fn})
}

// Gauge returns the gauge with this name and label set, creating it on
// first use. Nil-safe.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, in := r.lookup(name, help, "gauge", nil, labels)
	if in != nil {
		return in.(*Gauge)
	}
	g := &Gauge{labels: labels}
	fam.instances = append(fam.instances, g)
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at render time —
// for values something else already tracks (queue depth, pool width).
// Nil-safe no-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, in := r.lookup(name, help, "gauge", nil, labels)
	if in != nil {
		panic(fmt.Sprintf("obs: gauge %q%v already registered", name, labels))
	}
	fam.instances = append(fam.instances, &funcGauge{labels: labels, fn: fn})
}

// Histogram returns the histogram with this name, bucket layout and label
// set, creating it on first use. buckets must be strictly ascending upper
// bounds; nil selects LatencyBuckets. An implicit +Inf bucket is always
// appended. Nil-safe.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = LatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, in := r.lookup(name, help, "histogram", buckets, labels)
	if in != nil {
		return in.(*Histogram)
	}
	h := newHistogram(buckets, labels)
	fam.instances = append(fam.instances, h)
	return h
}

// Counter is a monotonically increasing integer metric. All methods are
// nil-receiver safe: the disabled form costs one branch.
type Counter struct {
	v      atomic.Int64
	labels []Label
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (must be >= 0 for the exposition to stay valid; not enforced
// on the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 when disabled).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) labelSet() []Label { return c.labels }

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits   atomic.Uint64
	labels []Label
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta atomically.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 when disabled).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) labelSet() []Label { return g.labels }

// funcGauge reads its value from a callback at render time.
type funcGauge struct {
	fn     func() float64
	labels []Label
}

func (g *funcGauge) labelSet() []Label { return g.labels }

// funcCounter reads a monotonic count from a callback at render time.
type funcCounter struct {
	fn     func() int64
	labels []Label
}

func (c *funcCounter) labelSet() []Label { return c.labels }

// Histogram counts observations into fixed buckets (upper bounds le[i],
// plus an implicit +Inf overflow bucket) and tracks sum, count and the
// maximum observed value. Observe is lock-free; quantile readout is exact
// with respect to the bucket counts (BucketQuantile), so repeated readouts
// of an unchanged histogram are bit-identical — no interpolation, no
// sampling.
type Histogram struct {
	le     []float64
	counts []atomic.Int64 // len(le)+1; last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
	max    atomic.Uint64 // float64 bits of the largest observation
	labels []Label
}

func newHistogram(le []float64, labels []Label) *Histogram {
	h := &Histogram{le: le, counts: make([]atomic.Int64, len(le)+1), labels: labels}
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.le, v) // first bucket with le >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.max.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile returns the q-quantile (0 < q <= 1) by BucketQuantile's rule,
// the maximum observed value standing in for the +Inf overflow bucket. An
// empty histogram returns 0. Nil-safe.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return BucketQuantile(h.le, h.snapshot(), math.Float64frombits(h.max.Load()), q)
}

// BucketQuantile is the one quantile rule over bucket counts: the q-quantile
// (0 < q <= 1) is the upper bound le[i] of the first bucket whose cumulative
// count cum[i] reaches rank ⌈q·n⌉, or overflow when that rank falls in the
// +Inf bucket. cum is aligned with le plus one trailing +Inf entry, which is
// n. An empty histogram returns 0 by convention (keeps bench tables finite).
func BucketQuantile(le []float64, cum []int64, overflow, q float64) float64 {
	n := cum[len(cum)-1]
	if n == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(q*float64(n))), 1), n)
	for i, c := range cum[:len(le)] {
		if c >= rank {
			return le[i]
		}
	}
	return overflow
}

func (h *Histogram) labelSet() []Label { return h.labels }

// snapshot returns cumulative bucket counts aligned with le (the +Inf
// cumulative count equals Count()).
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func equalLabels(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { //apollo:exactfloat bucket layouts are identical only when bitwise identical
			return false
		}
	}
	return true
}
