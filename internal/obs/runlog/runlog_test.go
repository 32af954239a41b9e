package runlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"apollo/internal/obs"
	"apollo/internal/obs/memprof"
)

// writeSteps appends one synthetic step event per loss to a run's event
// stream, numbered from 1.
func writeSteps(t *testing.T, r *Run, losses []float64) {
	t.Helper()
	for i, loss := range losses {
		ev := obs.StepEvent{
			Step: i + 1, Loss: loss, GradNorm: 0.5, LR: 1e-3,
			WallSeconds: 0.01 + float64(i%3)*0.001,
			Phases:      map[string]float64{"forward": 0.004, "backward": 0.006},
		}
		if err := r.Events().Emit(obs.KindStep, ev); err != nil {
			t.Fatal(err)
		}
	}
}

// appendRaw writes bytes straight onto a run directory's event file, the way
// a crash or a disk fault would leave them.
func appendRaw(t *testing.T, dir, raw string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, EventsFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerRoundtrip(t *testing.T) {
	root := t.TempDir()
	run, err := Create(root, Manifest{
		ID: "r1", Command: "test", Optimizer: "AdamW", Seed: 7, Replicas: 2, ZeRO: true,
		Config: map[string]any{"steps": 3},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The initial manifest must already be readable and honest: a run that
	// dies before Finalize leaves status "running".
	m0, err := ReadManifest(run.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if m0.Status != StatusRunning || m0.Version != ManifestVersion || m0.Start.IsZero() {
		t.Fatalf("initial manifest wrong: %+v", m0)
	}
	if m0.Host.GoVersion == "" || m0.Host.Cores < 1 {
		t.Fatalf("host not stamped: %+v", m0.Host)
	}

	writeSteps(t, run, []float64{3.0, 2.5, 2.0})
	run.Alert(AlertEvent{Step: 2, Kind: AlertLossSpike, Loss: 9, Median: 3, Factor: 3})
	if err := run.Finalize(StatusOK, Final{
		Steps: 3, FinalLoss: 2.0, FinalPPL: 7.39, StepWallSeconds: 0.03,
		PhaseSeconds: map[string]float64{"forward": 0.012},
	}); err != nil {
		t.Fatal(err)
	}
	// Finalize is idempotent: a later (signal-handler) call must not win.
	if err := run.Finalize(StatusInterrupted, Final{}); err != nil {
		t.Fatal(err)
	}

	rd, err := Load(root, "r1")
	if err != nil {
		t.Fatal(err)
	}
	m := rd.Manifest
	if m.Status != StatusOK || m.Steps != 3 || m.FinalLoss != 2.0 || m.Alerts != 1 {
		t.Fatalf("finalized manifest wrong: %+v", m)
	}
	if m.End.IsZero() || m.End.Before(m.Start) {
		t.Fatalf("end time wrong: start %v end %v", m.Start, m.End)
	}
	if m.Optimizer != "AdamW" || m.Seed != 7 || m.Replicas != 2 || !m.ZeRO {
		t.Fatalf("identity fields lost: %+v", m)
	}
	if len(rd.Steps) != 3 || rd.Steps[2].Loss != 2.0 || rd.Steps[0].Step != 1 {
		t.Fatalf("steps wrong: %+v", rd.Steps)
	}
	if len(rd.Alerts) != 1 || rd.Alerts[0].Kind != AlertLossSpike {
		t.Fatalf("alerts wrong: %+v", rd.Alerts)
	}
	// The run directory is exactly the manifest and the one event stream.
	entries, err := os.ReadDir(run.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != EventsFile || entries[1].Name() != ManifestFile {
		t.Fatalf("run directory holds %v, want exactly %s + %s", entries, EventsFile, ManifestFile)
	}
}

// TestManifestCarriesNonFiniteFinals: a diverged run ends on a NaN loss and
// an infinite perplexity, and it is the run whose exit status most needs to
// reach the disk. JSON has a literal for neither, so they travel as null
// beside their exact text — and a finite final stays the bare number it was.
func TestManifestCarriesNonFiniteFinals(t *testing.T) {
	root := t.TempDir()
	for id, fin := range map[string]Final{
		"diverged": {Steps: 2, FinalLoss: math.NaN(), FinalPPL: math.Inf(1)},
		"finite":   {Steps: 2, FinalLoss: 2.5, FinalPPL: 12.25},
	} {
		run, err := Create(root, Manifest{ID: id, Command: "test"})
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Finalize(StatusHalted, fin); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		m, err := ReadManifest(run.Dir())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if m.Status != StatusHalted || m.Steps != 2 || !same(m.FinalLoss, fin.FinalLoss) || !same(m.FinalPPL, fin.FinalPPL) {
			t.Fatalf("%s: read back %+v", id, m)
		}
		blob, err := os.ReadFile(filepath.Join(run.Dir(), ManifestFile))
		if err != nil {
			t.Fatal(err)
		}
		want := []string{`"final_loss": 2.5,`, `"final_ppl": 12.25`}
		if id == "diverged" {
			want = []string{`"final_loss": null,`, `"final_loss_text": "NaN",`, `"final_ppl": null,`, `"final_ppl_text": "+Inf"`}
		}
		for _, w := range want {
			if !strings.Contains(string(blob), w) {
				t.Fatalf("%s: manifest.json lacks %s:\n%s", id, w, blob)
			}
		}
		if id == "finite" && strings.Contains(string(blob), "_text") {
			t.Fatalf("finite finals grew a text member:\n%s", blob)
		}
	}
}

func TestNilRunIsSafe(t *testing.T) {
	var r *Run
	if r.ID() != "" || r.Dir() != "" || r.Events() != nil {
		t.Fatal("nil run leaked state")
	}
	r.Alert(AlertEvent{})
	if err := r.Finalize(StatusOK, Final{}); err != nil {
		t.Fatal(err)
	}
}

func TestListSortsByStart(t *testing.T) {
	root := t.TempDir()
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	for i, id := range []string{"c", "a", "b"} {
		run, err := Create(root, Manifest{ID: id, Start: base.Add(time.Duration(2-i) * time.Hour)})
		if err != nil {
			t.Fatal(err)
		}
		run.Finalize(StatusOK, Final{})
	}
	// A torn directory (no manifest) must not break listing.
	if err := os.MkdirAll(filepath.Join(root, "torn"), 0o755); err != nil {
		t.Fatal(err)
	}
	ms, err := List(root)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, m := range ms {
		ids = append(ids, m.ID)
	}
	want := []string{"b", "a", "c"} // ascending start time
	for i := range want {
		if i >= len(ids) || ids[i] != want[i] {
			t.Fatalf("list order %v, want %v", ids, want)
		}
	}
}

func TestReaderRejectsFutureVersion(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "future")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// There is no fallback reader: the previous layout (version 1, three
	// per-kind files) is refused by name exactly like a future one.
	for _, version := range []int{ManifestVersion + 1, 1} {
		blob, _ := json.Marshal(Manifest{Version: version, ID: "future"})
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadDir(dir)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) {
			t.Fatalf("manifest version %d: err %v, want a refusal naming the version", version, err)
		}
	}
}

func TestLoadToleratesTornTailLine(t *testing.T) {
	root := t.TempDir()
	run, err := Create(root, Manifest{ID: "torn"})
	if err != nil {
		t.Fatal(err)
	}
	writeSteps(t, run, []float64{1.0, 2.0})
	// A live run mid-write leaves a partial final line.
	appendRaw(t, run.Dir(), `{"kind":"step","step":3,"lo`)
	rd, err := Load(root, "torn")
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(rd.Steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(rd.Steps))
	}

	// Tailing resumes before the torn line and reads it whole once the
	// writer finishes it.
	var tail RunData
	off, err := TailEvents(run.Dir(), 0, &tail)
	if err != nil || len(tail.Steps) != 2 {
		t.Fatalf("tail: %d steps, err %v", len(tail.Steps), err)
	}
	if again, err := TailEvents(run.Dir(), off, &tail); err != nil || again != off || len(tail.Steps) != 2 {
		t.Fatalf("re-poll moved the offset %d → %d (%d steps, err %v)", off, again, len(tail.Steps), err)
	}
	appendRaw(t, run.Dir(), `ss":0.5}`+"\n")
	if _, err := TailEvents(run.Dir(), off, &tail); err != nil || len(tail.Steps) != 3 || tail.Steps[2].Loss != 0.5 {
		t.Fatalf("completed line not picked up: %+v, err %v", tail.Steps, err)
	}
}

// TestReadEventsCorruptionVersusTornTail: only an unterminated tail is a
// write in progress. A newline-terminated line that does not parse — even
// the last one — or that carries no string kind is corruption, reported with
// its byte offset; an unknown kind and a span are skipped.
func TestReadEventsCorruptionVersusTornTail(t *testing.T) {
	good := `{"kind":"step","step":1,"loss":2}` + "\n"
	for _, tc := range []struct {
		name, stream string
		steps        int
		wantOff      int
		wantErr      string
	}{
		{"torn tail", good + `{"kind":"step","st`, 1, len(good), ""},
		{"unknown kind and span skipped", good + `{"kind":"scale","layer":3}` + "\n" + `{"kind":"span","name":"x"}` + "\n" + good, 2, -1, ""},
		{"blank line", good + "\n" + good, 2, -1, ""},
		{"terminated garbage last", good + `{"kind":"step","st` + "\n", 1, len(good), fmt.Sprintf("byte %d", len(good))},
		{"terminated garbage mid", good + "not json\n" + good, 1, len(good), fmt.Sprintf("byte %d", len(good))},
		{"no kind", `{"step":1,"loss":2}` + "\n", 0, 0, `no "kind"`},
		{"non-string kind", `{"kind":7,"step":1}` + "\n", 0, 0, "byte 0"},
		{"wrong payload type", `{"kind":"step","step":"one"}` + "\n", 0, 0, "byte 0"},
	} {
		var rd RunData
		off, err := ReadEvents(strings.NewReader(tc.stream), 0, &rd)
		if tc.wantOff < 0 {
			tc.wantOff = len(tc.stream)
		}
		if len(rd.Steps) != tc.steps || off != int64(tc.wantOff) {
			t.Errorf("%s: %d steps, offset %d; want %d, %d", tc.name, len(rd.Steps), off, tc.steps, tc.wantOff)
		}
		if (tc.wantErr == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

// FuzzReadEvents: whatever bytes the event file holds, the reader never
// panics, stops on a line boundary inside the input, and decodes at most one
// event per newline — nothing is sized from a number in the input.
func FuzzReadEvents(f *testing.F) {
	baseline, err := os.ReadFile(filepath.Join("..", "..", "..", "ci", "baseline", "baseline-60m-apollo", EventsFile))
	if err != nil {
		f.Fatal(err)
	}
	// The head of the committed baseline (two steps, two memory samples), not
	// all 13 KB: the fuzz engine stalls for minutes on seeds that large, and
	// TestBaselineLoads already reads the whole file.
	head := bytes.SplitAfterN(baseline, []byte("\n"), 5)
	seed := bytes.Join(head[:4], nil)
	f.Add(seed)
	f.Add(append(bytes.Clone(seed), `{"kind":"mem","unix_us":17861126`...))
	f.Add([]byte(`{"kind":"scale","layer":3,"s":[1e308]}` + "\n" + `{"kind":"alert","step":2,"alert":"stall"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rd RunData
		off, err := ReadEvents(bytes.NewReader(data), 0, &rd)
		if off < 0 || off > int64(len(data)) || (off > 0 && data[off-1] != '\n') {
			t.Fatalf("offset %d is not a line boundary of a %d-byte input", off, len(data))
		}
		if n := len(rd.Steps) + len(rd.Alerts) + len(rd.Mem); n > bytes.Count(data[:off], []byte("\n")) {
			t.Fatalf("%d events from %d complete lines", n, bytes.Count(data[:off], []byte("\n")))
		}
		if err == nil {
			// What is left is an unterminated tail: resuming there is a no-op.
			var rest RunData
			if again, err := ReadEvents(bytes.NewReader(data[off:]), off, &rest); err != nil || again != off ||
				len(rest.Steps)+len(rest.Alerts)+len(rest.Mem) != 0 {
				t.Fatalf("resume at %d read more: offset %d, err %v", off, again, err)
			}
		}
	})
}

// TestBaselineLoads: the committed CI baseline is a version-2 entry whose
// one stream carries the 20 steps and 20 memory samples the gates compare.
func TestBaselineLoads(t *testing.T) {
	rd, err := LoadDir(filepath.Join("..", "..", "..", "ci", "baseline", "baseline-60m-apollo"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Steps) != 20 || len(rd.Mem) != 20 || len(rd.Alerts) != 0 || !rd.Mem[0].HighWater {
		t.Fatalf("baseline: %d steps, %d mem samples, %d alerts", len(rd.Steps), len(rd.Mem), len(rd.Alerts))
	}
}

// failingSink refuses every write and close, like a full or yanked disk.
type failingSink struct{}

func (failingSink) Write([]byte) (int, error) { return 0, errors.New("disk full") }
func (failingSink) Close() error              { return errors.New("close failed") }

// TestFailedEmitOfEachKindIsCounted: the one stream has one failure path — a
// failed emit of any kind lands in apollo_obs_write_errors_total, and
// Finalize hands back the close error instead of swallowing it.
func TestFailedEmitOfEachKindIsCounted(t *testing.T) {
	run := &Run{dir: t.TempDir(), manifest: Manifest{ID: "fail"}, events: obs.NewJSONLWriter(failingSink{})}
	emitters := map[string]func(){
		obs.KindStep: func() {
			obs.NewTrainRecorder(run.Events()).RecordStep(1, 2, 0.5, 1e-3, time.Millisecond, [obs.NumPhases]time.Duration{})
		},
		obs.KindMem:   func() { memprof.New(memprof.Config{Out: run.Events()}).Sample(1) },
		obs.KindSpan:  func() { obs.NewTracer(run.Events()).Start("request").End() },
		obs.KindAlert: func() { run.Alert(AlertEvent{Step: 1, Kind: AlertStall}) },
	}
	reg := obs.NewRegistry()
	obs.InstrumentWriteErrors(reg)
	for kind, emit := range emitters {
		before := obs.WriteErrors()
		emit()
		if got := obs.WriteErrors() - before; got != 1 {
			t.Fatalf("failed %s emit moved the counter by %d, want 1", kind, got)
		}
	}
	var expo strings.Builder
	reg.RenderPrometheus(&expo)
	if want := fmt.Sprintf("apollo_obs_write_errors_total %d", obs.WriteErrors()); !strings.Contains(expo.String(), want) {
		t.Fatalf("metric does not read %q:\n%s", want, expo.String())
	}
	if err := run.Finalize(StatusOK, Final{}); err == nil || !strings.Contains(err.Error(), "close failed") {
		t.Fatalf("Finalize = %v, want the close error", err)
	}
}

// TestConcurrentEmittersShareOneStream: a step recorder, a memory sampler, a
// tracer and the watchdog's alert hook all emitting at once through the
// run's one writer leave only whole lines — the reader, which rejects any
// terminated line that does not parse, accounts for every event.
func TestConcurrentEmittersShareOneStream(t *testing.T) {
	const n = 200
	root := t.TempDir()
	run, err := Create(root, Manifest{ID: "mixed"})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewTrainRecorder(run.Events())
	mp := memprof.New(memprof.Config{Out: run.Events()})
	mp.Set("weights", 4096)
	tr := obs.NewTracer(run.Events())
	var wg sync.WaitGroup
	for _, emit := range []func(i int){
		func(i int) { rec.RecordStep(i, 2, 0.5, 1e-3, time.Millisecond, [obs.NumPhases]time.Duration{}) },
		func(i int) { mp.Sample(i) },
		func(i int) { tr.Start("request").Attr("i", i).End() },
		func(i int) { run.Alert(AlertEvent{Step: i, Kind: AlertStall}) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= n; i++ {
				emit(i)
			}
		}()
	}
	wg.Wait()
	if err := run.Finalize(StatusOK, Final{}); err != nil {
		t.Fatal(err)
	}
	rd, err := Load(root, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(run.Dir(), EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Steps) != n || len(rd.Mem) != n || len(rd.Alerts) != n || bytes.Count(blob, []byte("\n")) != 4*n {
		t.Fatalf("%d steps, %d mem, %d alerts, %d lines; want %d each and %d lines",
			len(rd.Steps), len(rd.Mem), len(rd.Alerts), bytes.Count(blob, []byte("\n")), n, 4*n)
	}
}

func TestGC(t *testing.T) {
	root := t.TempDir()
	base := time.Now().UTC().Add(-100 * time.Hour)
	mk := func(id string, start time.Time, status string) {
		run, err := Create(root, Manifest{ID: id, Start: start})
		if err != nil {
			t.Fatal(err)
		}
		if status != StatusRunning {
			run.Finalize(status, Final{})
		}
	}
	mk("old1", base, StatusOK)
	mk("old2", base.Add(time.Hour), StatusOK)
	mk("new1", time.Now().UTC().Add(-2*time.Hour), StatusOK)
	// A fresh still-running entry must survive any GC rule.
	mk("live", time.Now().UTC().Add(-time.Minute), StatusRunning)

	// The dry run is the same selection with nothing deleted: it must not
	// list the fresh running entry the real pass spares.
	dry, err := GC(root, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if ms, _ := List(root); len(ms) != 4 {
		t.Fatalf("dry run deleted: %d runs left", len(ms))
	}
	if !slices.Equal(dry, []string{"old1", "old2", "new1"}) {
		t.Fatalf("keep=0 dry run lists %v, want every run but live", dry)
	}
	dry, err = GC(root, 2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := GC(root, 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dry, removed) {
		t.Fatalf("dry run lists %v, real gc removed %v", dry, removed)
	}
	got := map[string]bool{}
	for _, id := range removed {
		got[id] = true
	}
	if len(removed) != 2 || !got["old1"] || !got["old2"] {
		t.Fatalf("keep=2 removed %v, want old1+old2", removed)
	}
	ms, _ := List(root)
	if len(ms) != 2 { // new1 + live survive
		t.Fatalf("after gc: %d runs left", len(ms))
	}

	// Age rule: everything older than 1h goes, live is spared.
	removed, err = GC(root, -1, time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "new1" {
		t.Fatalf("age gc removed %v", removed)
	}
}

func TestDiffIdenticalAndDiverged(t *testing.T) {
	root := t.TempDir()
	mk := func(id string, losses []float64) *RunData {
		run, err := Create(root, Manifest{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		writeSteps(t, run, losses)
		run.Finalize(StatusOK, Final{Steps: len(losses)})
		rd, err := Load(root, id)
		if err != nil {
			t.Fatal(err)
		}
		return rd
	}
	a := mk("a", []float64{3.0, 2.5, 2.0, 1.8})
	b := mk("b", []float64{3.0, 2.5, 2.0, 1.8})
	c := mk("c", []float64{3.0, 2.5, 2.1, 1.9, 1.7})

	same := Diff(a, b, DiffOptions{})
	if same.Failed() || same.FirstDivergence != -1 || same.MaxLossDelta != 0 {
		t.Fatalf("identical runs diffed as different: %+v", same)
	}
	if same.Steps != 4 || same.WallP50A <= 0 || same.WallP95A < same.WallP50A {
		t.Fatalf("alignment/quantiles wrong: %+v", same)
	}

	div := Diff(a, c, DiffOptions{})
	if !div.Failed() || !div.LossDiverged {
		t.Fatalf("diverged runs passed: %+v", div)
	}
	if div.FirstDivergence != 3 {
		t.Fatalf("first divergence at %d, want 3", div.FirstDivergence)
	}
	if div.ExtraB != 1 || div.Steps != 4 {
		t.Fatalf("extra-step accounting wrong: %+v", div)
	}
	want := 0.1
	if d := div.MaxLossDelta - want; d > 1e-12 || d < -1e-12 {
		t.Fatalf("max delta %g, want %g", div.MaxLossDelta, want)
	}

	// A tolerance above the divergence turns the same pair green.
	if Diff(a, c, DiffOptions{LossTol: 0.2}).Failed() {
		t.Fatal("tolerance did not absorb the divergence")
	}

	// Zero aligned steps compare nothing, so nothing passes: two
	// manifest-only entries (or a baseline whose event stream went missing)
	// must fail the gate by name, not sail through it vacuously.
	for _, id := range []string{"a", "b"} {
		if err := os.Remove(filepath.Join(root, id, EventsFile)); err != nil {
			t.Fatal(err)
		}
	}
	bareA, errA := Load(root, "a")
	bareB, errB := Load(root, "b")
	if errA != nil || errB != nil {
		t.Fatalf("manifest-only entries must still load: %v / %v", errA, errB)
	}
	for _, rep := range []*DiffReport{Diff(bareA, bareB, DiffOptions{}), Diff(bareA, c, DiffOptions{LossTol: 1})} {
		var out bytes.Buffer
		rep.Write(&out)
		if !rep.Failed() || rep.Steps != 0 || !strings.Contains(out.String(), "verdict: FAIL (no aligned steps") ||
			strings.Contains(out.String(), "identical") {
			t.Fatalf("zero aligned steps passed:\n%s", out.String())
		}
	}
}

func TestDiffTimeGate(t *testing.T) {
	root := t.TempDir()
	mk := func(id string, wall float64) *RunData {
		run, err := Create(root, Manifest{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			run.Events().Emit(obs.KindStep, obs.StepEvent{Step: i + 1, Loss: 2.0, WallSeconds: wall})
		}
		run.Finalize(StatusOK, Final{})
		rd, err := Load(root, id)
		if err != nil {
			t.Fatal(err)
		}
		return rd
	}
	fast := mk("fast", 0.010)
	slow := mk("slow", 0.020)

	if Diff(fast, slow, DiffOptions{}).TimeRegressed {
		t.Fatal("time gate fired while disabled")
	}
	rep := Diff(fast, slow, DiffOptions{TimeTol: 0.5})
	if !rep.TimeRegressed || !rep.Failed() {
		t.Fatalf("2x slower run passed a 50%% gate: %+v", rep)
	}
	if Diff(fast, slow, DiffOptions{TimeTol: 1.5}).TimeRegressed {
		t.Fatal("2x slower run failed a 150% gate")
	}
	// The gate is one-directional: B faster than A never fails.
	if Diff(slow, fast, DiffOptions{TimeTol: 0.1}).TimeRegressed {
		t.Fatal("faster candidate flagged as regression")
	}
}

func TestDiffNaNMismatchIsDivergence(t *testing.T) {
	root := t.TempDir()
	run, err := Create(root, Manifest{ID: "nan"})
	if err != nil {
		t.Fatal(err)
	}
	// NaN cannot travel through JSON numbers; hand-write the line the way a
	// watchdog-adjacent tool might (JSON null decodes to 0 — what matters is
	// the reader side, so build RunData directly for the NaN case).
	writeSteps(t, run, []float64{1.0})
	run.Finalize(StatusOK, Final{})
	a, _ := Load(root, "nan")
	b := &RunData{Manifest: a.Manifest, Steps: []obs.StepEvent{{Step: 1, Loss: nan()}}}
	rep := Diff(a, b, DiffOptions{LossTol: 1e9})
	if !rep.LossDiverged {
		t.Fatal("NaN mismatch slipped past a huge tolerance")
	}
}

func nan() float64 { var z float64; return z / z }

func TestMemEventsAndLoad(t *testing.T) {
	root := t.TempDir()
	run, err := Create(root, Manifest{ID: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	mp := memprof.New(memprof.Config{Out: run.Events()})
	mp.Set("optimizer_state", 4096)
	mp.Sample(1)
	mp.Set("optimizer_state", 8192)
	mp.Sample(2)
	writeSteps(t, run, []float64{2.0, 1.5})
	if err := run.Finalize(StatusOK, Final{Steps: 2}); err != nil {
		t.Fatal(err)
	}
	rd, err := Load(root, "mem")
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Mem) != 2 {
		t.Fatalf("loaded %d mem samples, want 2", len(rd.Mem))
	}
	if rd.Mem[1].Components["optimizer_state"] != 8192 {
		t.Fatalf("sample 2 = %+v", rd.Mem[1])
	}
	peak, ok := rd.MemPeak()
	if !ok || peak.TotalBytes != 8192 || peak.Step != 2 {
		t.Fatalf("MemPeak = %+v ok=%v", peak, ok)
	}

	peaks := rd.ComponentPeaks()
	if len(peaks) != 1 || peaks[0] != (ComponentPeak{Name: "optimizer_state", Bytes: 8192}) {
		t.Fatalf("ComponentPeaks = %+v", peaks)
	}

	// A nil run's stream is nil, and a profiler built on it still works.
	var nilRun *Run
	p2 := memprof.New(memprof.Config{Out: nilRun.Events()})
	p2.Sample(1)
}

func TestDiffMemGate(t *testing.T) {
	root := t.TempDir()
	mk := func(id string, peak int64) *RunData {
		run, err := Create(root, Manifest{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		mp := memprof.New(memprof.Config{Out: run.Events()})
		mp.Set("optimizer_state", peak/2)
		mp.Sample(1)
		mp.Set("optimizer_state", peak)
		mp.Sample(2)
		writeSteps(t, run, []float64{2.0, 1.5})
		run.Finalize(StatusOK, Final{})
		rd, err := Load(root, id)
		if err != nil {
			t.Fatal(err)
		}
		return rd
	}
	small := mk("small", 1000)
	big := mk("big", 2000)

	if Diff(small, big, DiffOptions{}).MemRegressed {
		t.Fatal("mem gate fired while disabled")
	}
	rep := Diff(small, big, DiffOptions{MemTol: 0.5})
	if !rep.MemRegressed || !rep.Failed() {
		t.Fatalf("2x peak passed a 50%% gate: %+v", rep)
	}
	if rep.MemPeakA != 1000 || rep.MemPeakB != 2000 {
		t.Fatalf("peaks = %d / %d", rep.MemPeakA, rep.MemPeakB)
	}
	if Diff(small, big, DiffOptions{MemTol: 1.5}).MemRegressed {
		t.Fatal("2x peak failed a 150% gate")
	}
	// One-directional: a candidate using less memory never fails.
	if Diff(big, small, DiffOptions{MemTol: 0.1}).MemRegressed {
		t.Fatal("smaller candidate flagged as regression")
	}

	// A baseline without a memory timeline leaves the gate unarmed even
	// when a tolerance is set (pre-memprof baselines keep passing).
	bare, err := Create(root, Manifest{ID: "bare"})
	if err != nil {
		t.Fatal(err)
	}
	writeSteps(t, bare, []float64{2.0, 1.5})
	bare.Finalize(StatusOK, Final{})
	bareRD, _ := Load(root, "bare")
	if Diff(bareRD, big, DiffOptions{MemTol: 0.01}).MemRegressed {
		t.Fatal("gate armed against a timeline-less baseline")
	}

	// The report renders the peaks and verdict.
	var buf bytes.Buffer
	rep.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "mem peak (ledger)") || !strings.Contains(out, "peak memory regressed") {
		t.Fatalf("report missing mem lines:\n%s", out)
	}
}
