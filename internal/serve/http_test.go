package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"apollo/internal/data"
	"apollo/internal/eval"
	"apollo/internal/train"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, string, *Registry) {
	t.Helper()
	dir := t.TempDir()
	path, _ := trainAndSave(t, dir, 3)
	reg := newTestRegistry(t, cfg)
	ts := httptest.NewServer(NewServer(reg).Handler())
	t.Cleanup(ts.Close)
	return ts, path, reg
}

func postJSON(t *testing.T, url string, req any, resp any) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	if resp != nil && r.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), resp); err != nil {
			t.Fatalf("decode %q: %v", buf.String(), err)
		}
	}
	return r.StatusCode, buf.String()
}

// TestHTTPPerplexityExactText: the HTTP surface preserves the determinism
// contract — loss_text is the shortest round-trip rendering of the exact
// offline train.Validate value, under concurrent requests.
func TestHTTPPerplexityExactText(t *testing.T) {
	dir := t.TempDir()
	path, ref := trainAndSave(t, dir, 3)
	reg := newTestRegistry(t, Config{})
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()

	offline := train.Validate(ref, serveTestCorpus(t), 4, 4, 16)
	wantText := strconv.FormatFloat(offline, 'g', -1, 64)

	var wg sync.WaitGroup
	const n = 6
	texts := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp perplexityResponse
			status, raw := postJSON(t, ts.URL+"/v1/perplexity",
				perplexityRequest{Checkpoint: path, Batches: 4, Batch: 4, Seq: 16}, &resp)
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, raw)
				return
			}
			texts[i] = resp.LossText
			if resp.Loss != offline {
				t.Errorf("served loss %v != offline %v", resp.Loss, offline)
			}
		}(i)
	}
	wg.Wait()
	for i, txt := range texts {
		if txt != wantText {
			t.Fatalf("request %d loss_text %q != offline %q", i, txt, wantText)
		}
	}
}

func TestHTTPLogProbAndZeroShot(t *testing.T) {
	dir := t.TempDir()
	path, ref := trainAndSave(t, dir, 2)
	reg := newTestRegistry(t, Config{})
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()

	ctx, opt := []int{1, 2, 3, 4}, []int{5, 6, 7}
	var lp logProbResponse
	if status, raw := postJSON(t, ts.URL+"/v1/logprob",
		logProbRequest{Checkpoint: path, Context: ctx, Option: opt}, &lp); status != http.StatusOK {
		t.Fatalf("logprob status %d: %s", status, raw)
	}
	if want := eval.OptionLogProb(ref, ctx, opt); lp.LogProb != want {
		t.Fatalf("served logprob %v != eval %v", lp.LogProb, want)
	}

	// Explicit items, including an empty context (the fixed panic path).
	var zs zeroShotResponse
	req := zeroShotRequest{Checkpoint: path, Items: []zeroShotItem{
		{Context: []int{1, 2}, Options: [][]int{{3, 4}, {5, 6}}, Answer: 0},
		{Context: nil, Options: [][]int{{7, 8}, {9, 10}, {11, 12}}, Answer: 2},
	}}
	if status, raw := postJSON(t, ts.URL+"/v1/zeroshot", req, &zs); status != http.StatusOK {
		t.Fatalf("zeroshot status %d: %s", status, raw)
	}
	if zs.Accuracy < 0 || zs.Accuracy > 1 {
		t.Fatalf("accuracy %v out of bounds", zs.Accuracy)
	}

	// Generated-suite mode with small tasks.
	var suite zeroShotResponse
	if status, raw := postJSON(t, ts.URL+"/v1/zeroshot",
		zeroShotRequest{Checkpoint: path, SuiteSeed: 7, ItemsPerTask: 2}, &suite); status != http.StatusOK {
		t.Fatalf("suite status %d: %s", status, raw)
	}
	if len(suite.Tasks) != 10 {
		t.Fatalf("%d suite tasks, want 10", len(suite.Tasks))
	}
}

// TestHTTPZeroShotSuiteMatchesOffline: suite mode returns, task by task and
// overall, the accuracies of an offline evaluation of the same weights —
// eval.RunZeroShotSuite (apollo-bench table4's path) at the default task
// size, and with items_per_task each task regenerated at that size and
// scored with eval.ZeroShotAccuracy. The queue keeps its default bound: a
// full-size task submits up to 600 option units at once, and a query joins
// whole while fewer than the bound wait.
func TestHTTPZeroShotSuiteMatchesOffline(t *testing.T) {
	dir := t.TempDir()
	path, ref := trainAndSave(t, dir, 2)
	reg := newTestRegistry(t, Config{})
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()
	src := serveTestCorpus(t).Source()

	const seed = 7
	for _, perTask := range []int{0, 2} {
		var got zeroShotResponse
		if status, raw := postJSON(t, ts.URL+"/v1/zeroshot",
			zeroShotRequest{Checkpoint: path, SuiteSeed: seed, ItemsPerTask: perTask}, &got); status != http.StatusOK {
			t.Fatalf("items_per_task %d: status %d: %s", perTask, status, raw)
		}
		var want []eval.SuiteResult
		if perTask == 0 {
			want = eval.RunZeroShotSuite(ref, src, seed)
		} else {
			for _, cfg := range data.ZeroShotSuite(seed) {
				cfg.Items = perTask
				want = append(want, eval.SuiteResult{Task: cfg.Name, Accuracy: eval.ZeroShotAccuracy(ref, data.GenerateMCTask(src, cfg))})
			}
		}
		if len(got.Tasks) != len(want) {
			t.Fatalf("items_per_task %d: %d tasks, want %d", perTask, len(got.Tasks), len(want))
		}
		for i := range want {
			if got.Tasks[i] != want[i] {
				t.Fatalf("items_per_task %d: task %d served %+v, offline %+v", perTask, i, got.Tasks[i], want[i])
			}
		}
		avg := eval.Average(want)
		if got.Accuracy != avg || got.AccuracyText != strconv.FormatFloat(avg, 'g', -1, 64) {
			t.Fatalf("items_per_task %d: accuracy %v (%q), offline %v", perTask, got.Accuracy, got.AccuracyText, avg)
		}
	}
}

func TestHTTPFineTuneAndModels(t *testing.T) {
	dir := t.TempDir()
	path, _ := trainAndSave(t, dir, 2)
	reg := newTestRegistry(t, Config{})
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()

	var ft fineTuneResponse
	req := fineTuneRequest{
		Checkpoint: path,
		Task:       fineTuneTask{Name: "probe", Train: 12, Test: 8, CtxLen: 8, Classes: 2, Seed: 3},
		Epochs:     1, Batch: 4,
	}
	if status, raw := postJSON(t, ts.URL+"/v1/finetune", req, &ft); status != http.StatusOK {
		t.Fatalf("finetune status %d: %s", status, raw)
	}
	if ft.Accuracy < 0 || ft.Accuracy > 1 {
		t.Fatalf("accuracy %v out of bounds", ft.Accuracy)
	}

	r, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var models struct {
		Models []modelInfo `json:"models"`
		Loads  int64       `json:"loads"`
	}
	if err := json.NewDecoder(r.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 1 || models.Loads != 1 {
		t.Fatalf("models listing %+v", models)
	}
	m := models.Models[0]
	if m.Checkpoint != path || m.Step != 2 || m.ResidentBytes <= 0 {
		t.Fatalf("model info %+v", m)
	}
	if dev := float64(m.PredictedBytes-m.ResidentBytes) / float64(m.ResidentBytes); dev < -0.02 || dev > 0.02 {
		t.Fatalf("predicted %d vs resident %d bytes: %+.2f%%", m.PredictedBytes, m.ResidentBytes, dev*100)
	}

	if r, err := http.Get(ts.URL + "/healthz"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", r, err)
	}
}

// TestHTTPErrors pins the status contract per failure class: caller
// mistakes are 400, a checkpoint path the service cannot see is 404, a file
// the service owns but cannot load is 500, an oversized body is 413.
func TestHTTPErrors(t *testing.T) {
	ts, path, _ := newTestServer(t, Config{})

	// A file that exists and stats fine but is not a checkpoint: the load
	// itself fails, which is the service's 500, not the caller's 400.
	garbage := filepath.Join(t.TempDir(), "garbage.ckpt")
	if err := os.WriteFile(garbage, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		url  string
		req  any
		want int
	}{
		{"missing checkpoint", "/v1/perplexity", perplexityRequest{Checkpoint: "/does/not/exist"}, http.StatusNotFound},
		{"corrupt checkpoint", "/v1/perplexity", perplexityRequest{Checkpoint: garbage}, http.StatusInternalServerError},
		{"bad token", "/v1/logprob", logProbRequest{Checkpoint: path, Context: []int{1}, Option: []int{9999}}, http.StatusBadRequest},
		{"no items", "/v1/zeroshot", zeroShotRequest{Checkpoint: path}, http.StatusBadRequest},
		{"bad answer", "/v1/zeroshot", zeroShotRequest{Checkpoint: path,
			Items: []zeroShotItem{{Options: [][]int{{1}}, Answer: 5}}}, http.StatusBadRequest},
		{"bad task", "/v1/finetune", fineTuneRequest{Checkpoint: path}, http.StatusBadRequest},
		{"negative ctx_len", "/v1/finetune", fineTuneRequest{Checkpoint: path,
			Task: fineTuneTask{Train: 1, Test: 1, CtxLen: -1, Classes: 2}}, http.StatusBadRequest},
		{"unbounded items_per_task", "/v1/zeroshot", zeroShotRequest{Checkpoint: path,
			SuiteSeed: 1, ItemsPerTask: 1 << 30}, http.StatusBadRequest},
		{"negative batches", "/v1/perplexity", perplexityRequest{Checkpoint: path, Batches: -1}, http.StatusBadRequest},
		{"negative batch", "/v1/perplexity", perplexityRequest{Checkpoint: path, Batch: -8}, http.StatusBadRequest},
		{"negative seq", "/v1/perplexity", perplexityRequest{Checkpoint: path, Seq: -32}, http.StatusBadRequest},
		{"negative finetune batch", "/v1/finetune", fineTuneRequest{Checkpoint: path,
			Task: fineTuneTask{Train: 1, Test: 1, CtxLen: 4, Classes: 2}, Batch: -1}, http.StatusBadRequest},
		{"unknown field", "/v1/perplexity", map[string]any{"checkpoint": path, "nope": 1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, raw := postJSON(t, ts.URL+tc.url, tc.req, nil)
		if status != tc.want {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, status, raw, tc.want)
		}
		var er errorResponse
		if err := json.Unmarshal([]byte(raw), &er); err != nil || er.Error == "" {
			t.Fatalf("%s: malformed error body %q", tc.name, raw)
		}
	}
}

// TestHTTPStatusMapping drives httpStatus directly: every error class the
// serve layer produces lands on its documented status.
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, http.StatusOK},
		{"validation", fmt.Errorf("serve: tokens out of vocab"), http.StatusBadRequest},
		{"not exist", &os.PathError{Op: "stat", Path: "/x", Err: fs.ErrNotExist}, http.StatusNotFound},
		{"permission", fmt.Errorf("open: %w", fs.ErrPermission), http.StatusNotFound},
		{"queue full", errQueueFull, http.StatusTooManyRequests},
		{"shed overload", errShedOverload, http.StatusTooManyRequests},
		{"wrapped queue full", fmt.Errorf("submit: %w", errQueueFull), http.StatusTooManyRequests},
		{"superseded", errClosed, http.StatusServiceUnavailable},
		{"internal", internalErr(fmt.Errorf("decode failed")), http.StatusInternalServerError},
		{"wrapped internal", fmt.Errorf("load: %w", internalErr(fmt.Errorf("bad magic"))), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := httpStatus(tc.err); got != tc.want {
			t.Errorf("%s: httpStatus = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestHTTPBodyLimit: a body over Config.MaxBodyBytes answers 413 before any
// checkpoint work happens.
func TestHTTPBodyLimit(t *testing.T) {
	ts, path, _ := newTestServer(t, Config{MaxBodyBytes: 512})

	huge := logProbRequest{Checkpoint: path, Context: make([]int, 4096), Option: []int{1}}
	status, raw := postJSON(t, ts.URL+"/v1/logprob", huge, nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%s), want 413", status, raw)
	}

	// A body under the cap still works.
	small := logProbRequest{Checkpoint: path, Context: []int{1, 2}, Option: []int{3}}
	if status, raw := postJSON(t, ts.URL+"/v1/logprob", small, nil); status != http.StatusOK {
		t.Fatalf("small body: status %d (%s), want 200", status, raw)
	}
}

// TestHTTPReadiness walks /readyz through its lifecycle: 503 while the
// registry is empty (warming up), 200 once a snapshot has loaded, 503 again
// when the server starts draining — while /healthz stays 200 throughout.
func TestHTTPReadiness(t *testing.T) {
	dir := t.TempDir()
	path, _ := trainAndSave(t, dir, 2)
	reg := newTestRegistry(t, Config{})
	api := NewServer(reg)
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	get := func(route string) (int, map[string]any) {
		t.Helper()
		r, err := http.Get(ts.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			t.Fatalf("%s: bad body: %v", route, err)
		}
		return r.StatusCode, body
	}

	if status, body := get("/readyz"); status != http.StatusServiceUnavailable || body["ready"] != false {
		t.Fatalf("empty registry readyz: %d %v", status, body)
	}
	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Fatalf("healthz not 200 while warming up: %d", status)
	}

	// Any served request loads a snapshot; perplexity is the cheapest.
	if status, raw := postJSON(t, ts.URL+"/v1/perplexity",
		perplexityRequest{Checkpoint: path, Batches: 1, Batch: 2, Seq: 8}, nil); status != http.StatusOK {
		t.Fatalf("warmup request failed: %d %s", status, raw)
	}
	if status, body := get("/readyz"); status != http.StatusOK || body["ready"] != true {
		t.Fatalf("loaded readyz: %d %v", status, body)
	}

	api.SetDraining(true)
	if status, body := get("/readyz"); status != http.StatusServiceUnavailable || body["draining"] != true {
		t.Fatalf("draining readyz: %d %v", status, body)
	}
	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Fatalf("healthz not 200 while draining: %d", status)
	}
	api.SetDraining(false)
	if status, _ := get("/readyz"); status != http.StatusOK {
		t.Fatalf("readyz did not recover after drain cleared: %d", status)
	}
}
