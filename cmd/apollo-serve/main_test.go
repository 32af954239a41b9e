package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"apollo/internal/clitest"
)

// The tests drive the real binaries, built once: apollo-pretrain writes the
// 60M/20-step checkpoint every test serves, apollo-serve answers for it.
var (
	ckptPath string
	update   = flag.Bool("update", false, "rewrite testdata/*.golden from this binary's /metrics")
)

func TestMain(m *testing.M) {
	clitest.Main(m, func(dir string) error {
		ckptPath = filepath.Join(dir, "run.ckpt")
		out, err := clitest.Command("apollo-pretrain", "-size", "60M", "-optimizer", "APOLLO",
			"-steps", "20", "-seed", "1", "-runs", "", "-save", ckptPath).CombinedOutput()
		if err != nil {
			return fmt.Errorf("apollo-pretrain: %v\n%s", err, out)
		}
		return nil
	}, "apollo-serve", "apollo-pretrain")
}

// server is one running apollo-serve with the checkpoint preloaded.
type server struct{ *clitest.Server }

// start launches apollo-serve with flags and waits for /healthz; the process
// is killed at test end unless the test already waited for it.
func start(t *testing.T, flags ...string) *server {
	t.Helper()
	args := append([]string{"-size", "60M", "-seed", "1"}, flags...)
	return &server{clitest.Serve(t, "apollo-serve", append(args, ckptPath)...)}
}

// post sends one JSON query and returns status, body and headers; a
// transport failure is reported with t.Error (callers run it on goroutines)
// and comes back as status 0.
func (s *server) post(t *testing.T, path, body string) (int, string, http.Header) {
	t.Helper()
	r, err := http.Post(s.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, "", nil
	}
	defer r.Body.Close()
	blob, err := io.ReadAll(r.Body)
	if err != nil {
		t.Error(err)
		return 0, "", nil
	}
	return r.StatusCode, string(blob), r.Header
}

func (s *server) metrics(t *testing.T) string {
	t.Helper()
	r, err := http.Get(s.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	blob, err := io.ReadAll(r.Body)
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d, %v", r.StatusCode, err)
	}
	return string(blob)
}

func perplexityQuery(batches int) string {
	return fmt.Sprintf(`{"checkpoint":%q,"batches":%d}`, ckptPath, batches)
}

// checkMetricsGolden compares the shape of an exposition — every # HELP and
// # TYPE line and every sample's name{labels}, in order, values stripped and
// the checkpoint path normalized — against testdata/<name>.golden. The
// goldens were recorded from the binary of commit 6acfcd8 (the last one with
// serve's *Metrics wrapper types), so they pin that a scrape lists exactly
// the families, label sets and help text it listed before the handles became
// the only counters.
func checkMetricsGolden(t *testing.T, name, expo string) {
	t.Helper()
	var shape strings.Builder
	for _, line := range strings.Split(strings.TrimRight(expo, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		shape.WriteString(strings.ReplaceAll(line, ckptPath, "CKPT") + "\n")
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(shape.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := shape.String(); got != string(want) {
		t.Fatalf("/metrics shape differs from %s (-update rewrites it):\n%s", path, got)
	}
}

// TestServedEqualsOfflineAndCaches: the served loss_text is the -offline
// value char for char, a repeated query is the same bytes from the cache, and
// the session's /metrics lists the families it always listed, the resident
// snapshot on the memory ledger among them. A valid body just over the
// default -max-body-bytes (1 MiB) answers 413. -pprof serves /debug/pprof/,
// and -events holds the sampler's mem lines and the requests' span lines
// whole.
func TestServedEqualsOfflineAndCaches(t *testing.T) {
	out, err := clitest.Command("apollo-serve", "-size", "60M", "-seed", "1", "-offline", ckptPath).Output()
	if err != nil {
		t.Fatalf("-offline: %v", err)
	}
	offline := strings.TrimSpace(string(out))

	events := filepath.Join(t.TempDir(), "events.jsonl")
	s := start(t, "-pprof", "-events", events, "-mem-every", "50ms")
	status, first, h := s.post(t, "/v1/perplexity", perplexityQuery(4))
	if status != http.StatusOK || h.Get("X-Cache") != "miss" {
		t.Fatalf("first query: status %d, X-Cache %q\n%s", status, h.Get("X-Cache"), first)
	}
	m := regexp.MustCompile(`"loss_text":"([^"]+)"`).FindStringSubmatch(first)
	if m == nil || m[1] != offline {
		t.Fatalf("served loss_text %v, offline %q", m, offline)
	}
	status, again, h := s.post(t, "/v1/perplexity", perplexityQuery(4))
	if status != http.StatusOK || h.Get("X-Cache") != "hit" || again != first {
		t.Fatalf("repeat: status %d, X-Cache %q, bytes equal %v", status, h.Get("X-Cache"), again == first)
	}
	// 2^19 + 1 one-digit tokens: over 1 MiB of context alone.
	huge := fmt.Sprintf(`{"checkpoint":%q,"context":[%s0],"option":[1]}`, ckptPath, strings.Repeat("0,", 1<<19))
	if status, body, _ := s.post(t, "/v1/logprob", huge); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body: status %d, want 413\n%s", len(huge), status, body)
	}
	expo := s.metrics(t)
	checkMetricsGolden(t, "metrics", expo)
	if !regexp.MustCompile(`(?m)^apollo_mem_bytes\{component="serve_snapshots"\} [1-9]`).MatchString(expo) {
		t.Fatalf("no resident snapshot bytes on the memory ledger:\n%s", expo)
	}
	r, err := http.Get(s.URL + "/debug/pprof/")
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/: %v %v", r, err)
	}
	r.Body.Close()

	// The sampler's first tick is -mem-every after startup.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if blob, _ := os.ReadFile(events); bytes.Contains(blob, []byte(`{"kind":"mem"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no mem line in -events after 5s")
		}
	}
	if code := s.Stop(t); code != 0 {
		t.Fatalf("exit %d after SIGTERM:\n%s", code, s.Output())
	}
	blob, err := os.ReadFile(events)
	if err != nil || !bytes.HasSuffix(blob, []byte("\n")) {
		t.Fatalf("events: %v, torn tail %q", err, blob[max(0, len(blob)-80):])
	}
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n") {
		var ev struct {
			Kind       string `json:"kind"`
			Trace      string `json:"trace"`
			DurUS      int64  `json:"dur_us"`
			TotalBytes int64  `json:"total_bytes"`
			HeapInuse  int64  `json:"heap_inuse_bytes"`
		}
		err := json.Unmarshal([]byte(line), &ev)
		if span, mem := ev.Kind == "span" && strings.HasPrefix(ev.Trace, "t") && ev.DurUS >= 0,
			ev.Kind == "mem" && ev.TotalBytes >= 0 && ev.HeapInuse > 0; err != nil || !span && !mem {
			t.Fatalf("event line %q: %v", line, err)
		}
		kinds[ev.Kind]++
	}
	if kinds["mem"] == 0 || kinds["span"] == 0 {
		t.Fatalf("events by kind %v, want mem and span lines", kinds)
	}
}

// TestQueueBoundShedsThenDrains: with -max-queue 1 and no cache, concurrent
// compute splits into 200s and 429s carrying Retry-After, and the shed
// counter moves. SIGTERM flips /readyz to 503 while the listener is still
// open for -drain-wait, so load balancers deregister before connections are
// refused; then the server drains and exits 0.
func TestQueueBoundShedsThenDrains(t *testing.T) {
	s := start(t, "-max-queue", "1", "-cache-entries", "0", "-drain-wait", "1s")
	var ok, shed int
	for round := 0; round < 10 && shed == 0; round++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, body, h := s.post(t, "/v1/perplexity", perplexityQuery(32))
				mu.Lock()
				defer mu.Unlock()
				switch {
				case status == http.StatusOK:
					ok++
				case status == http.StatusTooManyRequests && h.Get("Retry-After") != "":
					shed++
				default:
					t.Errorf("status %d, Retry-After %q under overload: %s", status, h.Get("Retry-After"), body)
				}
			}()
		}
		wg.Wait()
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("%d served and %d shed; want both", ok, shed)
	}
	expo := s.metrics(t)
	m := regexp.MustCompile(`(?m)^apollo_serve_shed_total\{reason="queue_full"\} (\d+)$`).FindStringSubmatch(expo)
	if m == nil || m[1] != strconv.Itoa(shed) {
		t.Fatalf("shed counter %v, want %d", m, shed)
	}
	checkMetricsGolden(t, "metrics-shed", expo)

	if err := s.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		r, err := http.Get(s.URL + "/readyz")
		if err != nil {
			t.Fatalf("/readyz refused before it read draining: %v\n%s", err, s.Output())
		}
		var ready struct{ Draining bool }
		err = json.NewDecoder(r.Body).Decode(&ready)
		r.Body.Close()
		if err == nil && r.StatusCode == http.StatusServiceUnavailable && ready.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz still %d (draining %v, %v) after SIGTERM", r.StatusCode, ready.Draining, err)
		}
	}
	if code := s.Wait(t); code != 0 || !strings.Contains(s.Output(), "draining in-flight queries") {
		t.Fatalf("exit %d after SIGTERM:\n%s", code, s.Output())
	}
}
