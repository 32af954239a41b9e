package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"apollo/internal/obs"
	"apollo/internal/obs/runlog"
)

// The tests drive the real binaries, built once: apollo-pretrain writes the
// ledger, apollo-runs reads it back.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "apollo-runs-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), ".", "../apollo-pretrain").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	bin = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes one built binary and returns its combined output and exit code.
func run(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(filepath.Join(bin, name), args...).CombinedOutput()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		return string(out), ee.ExitCode()
	}
	return string(out), 0
}

// TestSubcommandsOverARealLedger trains two 6-step runs (seed 1 as "a", seed
// 2 as "b") and walks every subcommand over the entries they left.
func TestSubcommandsOverARealLedger(t *testing.T) {
	root := t.TempDir()
	for id, seed := range map[string]string{"a": "1", "b": "2"} {
		if out, code := run(t, "apollo-pretrain", "-size", "60M", "-optimizer", "APOLLO", "-steps", "6",
			"-seed", seed, "-runs", root, "-run-id", id); code != 0 {
			t.Fatalf("apollo-pretrain %s: exit %d\n%s", id, code, out)
		}
	}
	runs := func(args ...string) (string, int) {
		return run(t, "apollo-runs", append([]string{"-root", root}, args...)...)
	}
	expect := func(out string, code, wantCode int, wants ...string) {
		t.Helper()
		if code != wantCode {
			t.Fatalf("exit %d, want %d\n%s", code, wantCode, out)
		}
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Fatalf("output lacks %q:\n%s", want, out)
			}
		}
	}

	out, code := runs("list", "-q")
	if code != 0 || len(strings.Fields(out)) != 2 || !strings.Contains(out, "a\n") || !strings.Contains(out, "b\n") {
		t.Fatalf("list -q: exit %d\n%s", code, out)
	}
	out, code = runs("show", "a")
	expect(out, code, 0, "status     ok", "optimizer  APOLLO  seed 1", "series     6 step events; last: step 6")

	// The gate: a run against itself is bit-identical, a different seed is not.
	out, code = runs("diff", "a", "a")
	expect(out, code, 0, "aligned steps     6", "identical (bitwise)", "verdict: PASS")
	out, code = runs("diff", "a", "b")
	expect(out, code, 1, "first divergence  step 1", "verdict: FAIL (loss divergence")

	out, code = runs("mem", "a")
	expect(out, code, 0, "samples    6 over", "optimizer_state", "delta +0.00%", "← high water")

	// gc -n lists what gc would remove and removes nothing.
	out, code = runs("gc", "-n", "-keep", "0")
	expect(out, code, 0, "would remove a", "would remove b")
	if out, _ := runs("list", "-q"); len(strings.Fields(out)) != 2 {
		t.Fatalf("gc -n deleted runs: %q", out)
	}

	out, code = runs("watch", "-n", "1", "a")
	expect(out, code, 0, "step 6  loss ")

	// watch -metrics reads the JSON a server's GET /debug/vars serves.
	reg := obs.NewRegistry()
	reg.Counter("apollo_http_requests_total", "Requests.", obs.Label{Key: "path", Value: "/v1/logprob"}).Add(3)
	lat := reg.Histogram("apollo_http_request_seconds", "Latency.", obs.LatencyBuckets)
	for _, ms := range []int{2, 4, 40} {
		lat.Observe((time.Duration(ms) * time.Millisecond).Seconds())
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if err := reg.WriteVars(w); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()
	out, code = runs("watch", "-n", "1", "-metrics", srv.URL, "a")
	expect(out, code, 0, "step 6  loss ", `apollo_http_requests_total{path="/v1/logprob"} 3`+"\n",
		fmt.Sprintf("apollo_http_request_seconds                  n=3 p50=%.4fs p95=%.4fs", lat.Quantile(0.50), lat.Quantile(0.95)))

	// A version-1 directory is refused by name; two entries with no event
	// stream have nothing to align and fail the gate.
	blob, err := os.ReadFile(filepath.Join(root, "a", runlog.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(root, "v1")
	if err := os.MkdirAll(v1, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(v1, runlog.ManifestFile), bytes.Replace(blob, []byte(`"version": 2`), []byte(`"version": 1`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runs("diff", "-baseline", v1, "a")
	expect(out, code, 1, "manifest version 1")
	for _, id := range []string{"a", "b"} {
		if err := os.Remove(filepath.Join(root, id, runlog.EventsFile)); err != nil {
			t.Fatal(err)
		}
	}
	out, code = runs("diff", "a", "b")
	expect(out, code, 1, "verdict: FAIL (no aligned steps")
}

// TestShowRendersADivergedStep: the step a run diverges on is the one the
// ledger exists to keep. A step whose loss is NaN and whose gradient norm is
// +Inf, with the nan_loss alert the watchdog raises for it (here injected
// through HookLoss), leaves exactly one step line and one alert line — null
// beside the exact text, since JSON has no literal for either — costs no
// write error, and reads back through `show`.
func TestShowRendersADivergedStep(t *testing.T) {
	root := t.TempDir()
	ledger, err := runlog.Create(root, runlog.Manifest{ID: "nan", Command: "test"})
	if err != nil {
		t.Fatal(err)
	}
	before := obs.WriteErrors()
	obs.NewTrainRecorder(ledger.Events()).RecordStep(3, math.NaN(), math.Inf(1), 1e-3, time.Millisecond, [obs.NumPhases]time.Duration{})
	wd := runlog.NewWatchdog(runlog.WatchdogConfig{Halt: true, Emit: ledger.Alert})
	wd.HookLoss = func(int, float64) float64 { return math.NaN() }
	if !wd.ObserveStep(3, 2.5, 0.5, 0.001) {
		t.Fatal("the injected NaN did not halt")
	}
	// The finals of such a run are non-finite too, and must not cost it its
	// exit status: the manifest carries them the same way.
	if err := ledger.Finalize(runlog.StatusHalted, runlog.Final{Steps: 3, FinalLoss: math.NaN(), FinalPPL: math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	if n := obs.WriteErrors() - before; n != 0 {
		t.Fatalf("%d events were dropped as write errors", n)
	}
	blob, err := os.ReadFile(filepath.Join(root, "nan", runlog.EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) != 2 ||
		!strings.HasPrefix(lines[0], `{"kind":"step","step":3,"loss":null,"loss_text":"NaN","grad_norm":null,"grad_norm_text":"+Inf",`) ||
		!strings.HasPrefix(lines[1], `{"kind":"alert","step":3,"alert":"nan_loss","loss":null,"loss_text":"NaN","grad_norm":0.5,`) {
		t.Fatalf("events.jsonl:\n%s", blob)
	}
	out, code := run(t, "apollo-runs", "-root", root, "show", "nan")
	if code != 0 || !strings.Contains(out, "last: step 3 loss NaN grad +Inf") ||
		!strings.Contains(out, "alert      step 3 nan_loss loss=NaN") ||
		!strings.Contains(out, "status     halted") || !strings.Contains(out, "final loss NaN  ppl +Inf") {
		t.Fatalf("show: exit %d\n%s", code, out)
	}
	out, code = run(t, "apollo-runs", "-root", root, "list")
	if code != 0 || !strings.Contains(out, "halted") || !strings.Contains(out, "NaN") || !strings.Contains(out, "+Inf") {
		t.Fatalf("list: exit %d\n%s", code, out)
	}
}
