package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"apollo/internal/obs"
)

// scrape fetches a GET endpoint and returns status + body.
func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	return r.StatusCode, buf.String()
}

// metricValue extracts one sample value from an exposition body, matching
// the full "name{labels}" prefix.
func metricValue(t *testing.T, expo, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(expo, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			var v float64
			if err := json.Unmarshal([]byte(rest), &v); err != nil {
				t.Fatalf("sample %q has non-numeric value %q", sample, rest)
			}
			return v
		}
	}
	t.Fatalf("sample %q not found in exposition:\n%s", sample, expo)
	return 0
}

// TestMetricsEndpoint exercises the whole instrumented serve path: queries
// flow through the middleware, batcher and registry, then GET /metrics must
// expose well-formed Prometheus text with nonzero counters for each layer,
// and GET /debug/vars must be valid JSON over the same registry.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	path, _ := trainAndSave(t, dir, 3)
	var traceBuf strings.Builder
	reg := newTestRegistry(t, Config{
		Metrics: obs.NewRegistry(),
		Tracer:  obs.NewTracer(obs.NewJSONLWriter(&traceBuf)),
	})
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()

	// Drive every instrumented layer: perplexity (exec path) and logprob
	// (batched scoring path), plus one 4xx for the error counter.
	var resp perplexityResponse
	status, raw := postJSON(t, ts.URL+"/v1/perplexity",
		perplexityRequest{Checkpoint: path, Batches: 2, Batch: 4, Seq: 16}, &resp)
	if status != http.StatusOK {
		t.Fatalf("perplexity status %d: %s", status, raw)
	}
	var lpResp logProbResponse
	status, raw = postJSON(t, ts.URL+"/v1/logprob",
		logProbRequest{Checkpoint: path, Context: []int{1, 2, 3}, Option: []int{4, 5}}, &lpResp)
	if status != http.StatusOK {
		t.Fatalf("logprob status %d: %s", status, raw)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/logprob", map[string]any{"checkpoint": path, "nope": 1}, nil); status < 400 {
		t.Fatalf("malformed logprob got status %d, want error", status)
	}

	status, expo := scrape(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}

	// Structural validity: every non-comment, non-empty line is name[{labels}] value.
	for _, line := range strings.Split(strings.TrimRight(expo, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}

	// One nonzero witness per instrumented layer.
	if v := metricValue(t, expo, `apollo_http_requests_total{path="/v1/perplexity"}`); v < 1 {
		t.Fatalf("perplexity request counter = %g", v)
	}
	if v := metricValue(t, expo, `apollo_http_requests_total{path="/v1/logprob"}`); v < 2 {
		t.Fatalf("logprob request counter = %g, want >= 2", v)
	}
	if v := metricValue(t, expo, `apollo_http_errors_total{path="/v1/logprob"}`); v < 1 {
		t.Fatalf("error counter = %g", v)
	}
	if v := metricValue(t, expo, `apollo_http_request_seconds_count{path="/v1/perplexity"}`); v < 1 {
		t.Fatalf("latency histogram count = %g", v)
	}
	if v := metricValue(t, expo, "apollo_serve_registry_loads_total"); v < 1 {
		t.Fatalf("registry loads = %g", v)
	}
	if v := metricValue(t, expo, "apollo_serve_resident_models"); v < 1 {
		t.Fatalf("resident models gauge = %g", v)
	}
	if v := metricValue(t, expo, "apollo_serve_execs_total"); v < 1 {
		t.Fatalf("exec counter = %g", v)
	}
	if v := metricValue(t, expo, "apollo_serve_batch_size_count"); v < 1 {
		t.Fatalf("batch size histogram = %g", v)
	}
	if v := metricValue(t, expo, `apollo_serve_snapshot_generation{checkpoint="`+path+`"}`); v != 1 {
		t.Fatalf("snapshot generation gauge = %g, want 1", v)
	}

	// /debug/vars: valid JSON over the same registry.
	status, vars := scrape(t, ts.URL+"/debug/vars")
	if status != http.StatusOK {
		t.Fatalf("/debug/vars status %d", status)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(vars), &parsed); err != nil {
		t.Fatalf("/debug/vars not valid JSON: %v", err)
	}
	if parsed[`apollo_http_requests_total{path="/v1/perplexity"}`].(float64) < 1 {
		t.Fatalf("vars missing request counter: %v", parsed)
	}

	// Tracing: each handled request emitted one span with the http name.
	traces := strings.TrimRight(traceBuf.String(), "\n")
	if n := len(strings.Split(traces, "\n")); n < 3 {
		t.Fatalf("got %d trace events, want >= 3:\n%s", n, traces)
	}
	if !strings.Contains(traces, `"name":"http /v1/perplexity"`) {
		t.Fatalf("trace stream missing perplexity span:\n%s", traces)
	}
}

// TestRequestIDHeader pins the trace/request-ID contract: with a tracer
// configured every response carries X-Request-Id, and IDs differ between
// requests.
func TestRequestIDHeader(t *testing.T) {
	dir := t.TempDir()
	trainAndSave(t, dir, 2)
	var buf strings.Builder
	reg := newTestRegistry(t, Config{Tracer: obs.NewTracer(obs.NewJSONLWriter(&buf))})
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()

	ids := map[string]bool{}
	for i := 0; i < 2; i++ {
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			t.Fatalf("response %d missing X-Request-Id", i)
		}
		ids[id] = true
	}
	if len(ids) != 2 {
		t.Fatalf("request IDs not unique: %v", ids)
	}
}

// TestPprofEndpoint checks the opt-in wiring: disabled by default, served
// under /debug/pprof/ when Config.Pprof is set.
func TestPprofEndpoint(t *testing.T) {
	off := newTestRegistry(t, Config{})
	tsOff := httptest.NewServer(NewServer(off).Handler())
	defer tsOff.Close()
	if status, _ := scrape(t, tsOff.URL+"/debug/pprof/"); status == http.StatusOK {
		t.Fatalf("pprof served without opt-in")
	}

	on := newTestRegistry(t, Config{Pprof: true})
	tsOn := httptest.NewServer(NewServer(on).Handler())
	defer tsOn.Close()
	status, body := scrape(t, tsOn.URL+"/debug/pprof/")
	if status != http.StatusOK {
		t.Fatalf("pprof index status %d", status)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index lacks profiles:\n%.200s", body)
	}
}

// TestConfigWithoutMetricsStillServes: a Config with only Model set (no
// Metrics, no Tracer, no MemProf) gets a private registry — queries work, /metrics shows this
// service's own counters, and no X-Request-Id appears without a tracer.
func TestConfigWithoutMetricsStillServes(t *testing.T) {
	dir := t.TempDir()
	path, _ := trainAndSave(t, dir, 2)
	reg, err := NewRegistry(Config{Model: serveTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()

	status, raw, h := postRaw(t, ts.URL+"/v1/logprob",
		logProbRequest{Checkpoint: path, Context: []int{1, 2, 3}, Option: []int{4, 5}})
	if status != http.StatusOK {
		t.Fatalf("logprob status %d: %s", status, raw)
	}
	if h.Get("X-Request-Id") != "" {
		t.Fatalf("response carries X-Request-Id without a tracer")
	}
	status, expo := scrape(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	for sample, want := range map[string]float64{
		`apollo_http_requests_total{path="/v1/logprob"}`: 1,
		"apollo_serve_registry_loads_total":              1,
		"apollo_serve_scored_seqs_total":                 1,
		"apollo_serve_cache_misses_total":                1,
		`apollo_mem_bytes{component="serve_snapshots"}`:  float64(reg.Entries()[0].ResidentBytes()),
	} {
		if v := metricValue(t, expo, sample); v != want {
			t.Fatalf("%s = %v, want %v", sample, v, want)
		}
	}
}
