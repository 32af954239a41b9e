package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The tests drive the real binaries, built once: apollo-pretrain writes the
// 60M/20-step checkpoint every test serves, apollo-serve answers for it.
var (
	bin, ckptPath string
	update        = flag.Bool("update", false, "rewrite testdata/*.golden from this binary's /metrics")
)

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "apollo-serve-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), ".", "../apollo-pretrain").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	bin, ckptPath = dir, filepath.Join(dir, "run.ckpt")
	if out, err := exec.Command(filepath.Join(bin, "apollo-pretrain"), "-size", "60M", "-optimizer", "APOLLO",
		"-steps", "20", "-seed", "1", "-runs", "", "-save", ckptPath).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "apollo-pretrain: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// server is one running apollo-serve with the checkpoint preloaded.
type server struct {
	url string
	cmd *exec.Cmd
	out *bytes.Buffer
}

// start launches apollo-serve on a free loopback port and waits for
// /healthz. The process is killed at test end unless the test already
// waited for it.
func start(t *testing.T, flags ...string) *server {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{url: "http://" + addr, out: &bytes.Buffer{}}
	args := append([]string{"-size", "60M", "-seed", "1", "-addr", addr}, flags...)
	s.cmd = exec.Command(filepath.Join(bin, "apollo-serve"), append(args, ckptPath)...)
	s.cmd.Stdout, s.cmd.Stderr = s.out, s.out
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if s.cmd.ProcessState == nil {
			s.cmd.Process.Kill()
			s.cmd.Wait()
		}
	})
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if r, err := http.Get(s.url + "/healthz"); err == nil {
			r.Body.Close()
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("apollo-serve never answered /healthz:\n%s", s.out)
		}
	}
}

// post sends one JSON query and returns status, body and headers; a
// transport failure is reported with t.Error (callers run it on goroutines)
// and comes back as status 0.
func (s *server) post(t *testing.T, path, body string) (int, string, http.Header) {
	t.Helper()
	r, err := http.Post(s.url+path, "application/json", strings.NewReader(body))
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
	r, err := http.Get(s.url + "/metrics")
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
// the session's /metrics lists the families it always listed.
func TestServedEqualsOfflineAndCaches(t *testing.T) {
	out, err := exec.Command(filepath.Join(bin, "apollo-serve"), "-size", "60M", "-seed", "1", "-offline", ckptPath).Output()
	if err != nil {
		t.Fatalf("-offline: %v", err)
	}
	offline := strings.TrimSpace(string(out))

	s := start(t)
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
	checkMetricsGolden(t, "metrics", s.metrics(t))
}

// TestQueueBoundShedsThenDrains: with -max-queue 1 and no cache, concurrent
// compute splits into 200s and 429s carrying Retry-After, the shed counter
// moves, and SIGTERM drains and exits 0.
func TestQueueBoundShedsThenDrains(t *testing.T) {
	s := start(t, "-max-queue", "1", "-cache-entries", "0")
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

	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := s.cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", err, s.out)
	}
	if !strings.Contains(s.out.String(), "draining in-flight queries") {
		t.Fatalf("no drain message:\n%s", s.out)
	}
}
