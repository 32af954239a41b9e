package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeBasics pins the scalar metric semantics, including the
// get-or-create contract: asking twice for the same name+labels returns the
// same instance.
func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_total", "help"); again != c {
		t.Fatalf("get-or-create returned a different counter instance")
	}
	g := r.Gauge("test_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}

	lblA := r.Counter("test_labeled_total", "help", Label{"path", "/a"})
	lblB := r.Counter("test_labeled_total", "help", Label{"path", "/b"})
	if lblA == lblB {
		t.Fatalf("distinct label sets must get distinct instances")
	}
	lblA.Inc()
	if lblB.Value() != 0 {
		t.Fatalf("label sets must not share state")
	}
}

// TestNilRegistryIsDisabledMode verifies the disabled-mode contract: a nil
// registry hands out nil handles and every operation no-ops without
// panicking.
func TestNilRegistryIsDisabledMode(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "h")
	g := r.Gauge("x", "h")
	h := r.Histogram("x_seconds", "h", nil)
	r.GaugeFunc("x_fn", "h", func() float64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil handles must read as zero")
	}
	if err := r.RenderPrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil render: %v", err)
	}
}

// TestHistogramQuantileEdges pins Quantile at the edge counts the readout
// contract names: empty, a single observation, all observations in one
// bucket, and the +Inf overflow bucket reporting the observed maximum. At
// each, three readers agree: Histogram.Quantile, a window opened before the
// first observation, and the text reader (ParseExposition + BucketQuantile)
// over the rendered exposition — which carries no maximum, so in the
// overflow bucket it reads +Inf.
func TestHistogramQuantileEdges(t *testing.T) {
	r := NewRegistry()
	agree := func(h *Histogram, w *HistogramWindow, key string, overflow bool, qs ...float64) {
		t.Helper()
		var b strings.Builder
		if err := r.RenderPrometheus(&b); err != nil {
			t.Fatal(err)
		}
		s, err := ParseExposition(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		hb := s.Histograms[key]
		if hb == nil {
			t.Fatalf("text reader found no histogram %q in:\n%s", key, b.String())
		}
		for _, q := range qs {
			want, wantText := h.Quantile(q), h.Quantile(q)
			if overflow {
				wantText = math.Inf(1)
			}
			if got := w.Quantile(q); got != want {
				t.Fatalf("%s: window Quantile(%g) = %g, histogram %g", key, q, got, want)
			}
			if got := BucketQuantile(hb.Le, hb.Cum, math.Inf(1), q); got != wantText {
				t.Fatalf("%s: text reader Quantile(%g) = %g, want %g", key, q, got, wantText)
			}
		}
	}

	empty := r.Histogram("edge_empty", "h", []float64{1, 2})
	emptyW := empty.Window()
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
	if empty.Count() != 0 || empty.Sum() != 0 {
		t.Fatalf("empty histogram count/sum nonzero")
	}
	agree(empty, emptyW, "edge_empty", false, 0.5, 1)

	one := r.Histogram("edge_one", "h", []float64{1, 2, 4})
	oneW := one.Window()
	one.Observe(1.5)
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := one.Quantile(q); got != 2 {
			t.Fatalf("single-observation Quantile(%g) = %g, want bucket bound 2", q, got)
		}
	}
	agree(one, oneW, "edge_one", false, 0.01, 0.5, 0.99, 1)

	packed := r.Histogram("edge_packed", "h", []float64{1, 2, 4})
	packedW := packed.Window()
	for i := 0; i < 100; i++ {
		packed.Observe(3) // all land in the le=4 bucket
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := packed.Quantile(q); got != 4 {
			t.Fatalf("packed Quantile(%g) = %g, want 4", q, got)
		}
	}
	agree(packed, packedW, "edge_packed", false, 0.5, 0.95, 0.99)

	over := r.Histogram("edge_over", "h", []float64{1})
	overW := over.Window()
	over.Observe(0.5)
	over.Observe(10)
	over.Observe(25) // overflow bucket max
	if got := over.Quantile(1); got != 25 {
		t.Fatalf("overflow Quantile(1) = %g, want observed max 25", got)
	}
	if got := over.Quantile(0.33); got != 1 {
		t.Fatalf("Quantile(0.33) = %g, want first bucket bound 1", got)
	}
	agree(over, overW, "edge_over", false, 0.33)
	agree(over, overW, "edge_over", true, 0.5, 1)
	if got := over.Sum(); got != 35.5 {
		t.Fatalf("Sum = %g, want 35.5", got)
	}
}

// TestParseExpositionRejectsMalformed feeds the text reader lines its
// renderer never writes; each is an error, not a panic or a silent
// misreading.
func TestParseExpositionRejectsMalformed(t *testing.T) {
	const head = "# TYPE c_total counter\n# TYPE h histogram\n"
	for _, body := range []string{
		"c_total\n",
		"c_total x\n",
		`h_bucket{le="} 1` + "\n",
		`h_bucket{path="/a"} 1` + "\n",
		`h_bucket{le="1"} 1.5` + "\n",
		`h_bucket{le="1"} 1` + "\n", // no +Inf bucket
	} {
		if _, err := ParseExposition(strings.NewReader(head + body)); err == nil {
			t.Errorf("ParseExposition(%q) = nil error", body)
		}
	}
}

// TestHistogramQuantileRank checks the rank rule on a known spread: rank
// ⌈q·n⌉ picks the bucket, and readout is repeatable bit-for-bit.
func TestHistogramQuantileRank(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rank_seconds", "h", []float64{1, 2, 4, 8})
	// 10 observations: 5 in le=1, 3 in le=2, 2 in le=4.
	for i := 0; i < 5; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 3; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 2; i++ {
		h.Observe(3)
	}
	cases := []struct{ q, want float64 }{
		{0.5, 1},  // rank 5 → first bucket
		{0.51, 2}, // rank 6 → second bucket
		{0.8, 2},  // rank 8 → second bucket
		{0.81, 4}, // rank 9 → third bucket
		{1, 4},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
		if again := h.Quantile(c.q); again != h.Quantile(c.q) {
			t.Fatalf("Quantile(%g) not repeatable", c.q)
		}
	}
}

// TestConcurrentCounters hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this doubles as the data-race check
// for the atomic paths.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "h")
	g := r.Gauge("conc_gauge", "h")
	h := r.Histogram("conc_seconds", "h", []float64{1, 2})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Fatalf("gauge = %g, want %d", got, workers*per)
	}
	if got, want := h.Count(), int64(workers*per); got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
	if got := h.Sum(); got != workers*per*0.5 {
		t.Fatalf("histogram sum = %g, want %g", got, workers*per*0.5)
	}
}

// TestRenderPrometheus validates the exposition output line by line: HELP
// and TYPE headers, counter/gauge samples, cumulative histogram buckets
// ending in +Inf, and label escaping.
func TestRenderPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "Requests.", Label{"path", "/v1/x"}).Add(3)
	r.Gauge("depth", "Queue depth.").Set(2)
	r.GaugeFunc("workers", "Pool width.", func() float64 { return 7 })
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.Counter("esc_total", "h", Label{"v", "a\"b\\c\nd"}).Inc()

	var b strings.Builder
	if err := r.RenderPrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP req_total Requests.\n",
		"# TYPE req_total counter\n",
		`req_total{path="/v1/x"} 3` + "\n",
		"# TYPE depth gauge\n",
		"depth 2\n",
		"workers 7\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 1` + "\n",
		`lat_seconds_bucket{le="1"} 2` + "\n",
		`lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"lat_seconds_sum 5.55\n",
		"lat_seconds_count 3\n",
		`esc_total{v="a\"b\\c\nd"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Structural validity: every non-comment line is "name{...} value".
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := parseFloat(line[sp+1:]); err != nil {
			t.Fatalf("non-numeric sample value in %q", line)
		}
	}
}

func parseFloat(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	if s == "-Inf" {
		return math.Inf(-1), nil
	}
	var v float64
	err := json.Unmarshal([]byte(s), &v)
	return v, err
}

// TestRegistryConflictsPanic pins the registration guards: type mismatch
// and histogram bucket-layout mismatch are programming errors.
func TestRegistryConflictsPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash_total", "h")
	mustPanic(t, "type clash", func() { r.Gauge("clash_total", "h") })
	r.Histogram("clash_seconds", "h", []float64{1, 2})
	mustPanic(t, "bucket clash", func() { r.Histogram("clash_seconds", "h", []float64{1, 3}) })
	mustPanic(t, "bad name", func() { r.Counter("9bad", "h") })
	mustPanic(t, "unsorted buckets", func() { r.Histogram("unsorted", "h", []float64{2, 1}) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}
