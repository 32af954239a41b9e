package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestTracerSpans verifies the JSONL span stream: one event per End, child
// spans share the parent's trace and point back at it, attrs survive, and
// root spans get fresh trace IDs (the request-ID contract).
func TestTracerSpans(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(NewJSONLWriter(&b))

	root := tr.Start("http /v1/perplexity")
	if root.TraceID() == "" {
		t.Fatalf("root span must carry a trace ID")
	}
	child := root.Child("score")
	child.Attr("batch", 4).End()
	root.Attr("status", 200).End()
	second := tr.Start("http /v1/logprob")
	second.End()

	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d events, want 3:\n%s", len(lines), b.String())
	}
	type ev struct {
		Trace, Span, Parent, Name string
		StartUS                   int64          `json:"start_us"`
		DurUS                     int64          `json:"dur_us"`
		Attrs                     map[string]any `json:"attrs"`
	}
	var evs [3]ev
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &evs[i]); err != nil {
			t.Fatalf("event %d not valid JSON: %v\n%s", i, err, line)
		}
	}
	// Emission order: child ends first, then root, then the second root.
	if evs[0].Name != "score" || evs[1].Name != "http /v1/perplexity" {
		t.Fatalf("unexpected event order: %q, %q", evs[0].Name, evs[1].Name)
	}
	if evs[0].Trace != evs[1].Trace {
		t.Fatalf("child trace %q != parent trace %q", evs[0].Trace, evs[1].Trace)
	}
	if evs[0].Parent != evs[1].Span {
		t.Fatalf("child parent %q != parent span %q", evs[0].Parent, evs[1].Span)
	}
	if evs[1].Parent != "" {
		t.Fatalf("root span has parent %q", evs[1].Parent)
	}
	if evs[2].Trace == evs[1].Trace {
		t.Fatalf("second root must start a fresh trace")
	}
	if evs[1].Trace != root.TraceID() {
		t.Fatalf("emitted trace %q != TraceID() %q", evs[1].Trace, root.TraceID())
	}
	if evs[0].Attrs["batch"].(float64) != 4 || evs[1].Attrs["status"].(float64) != 200 {
		t.Fatalf("attrs lost: %v / %v", evs[0].Attrs, evs[1].Attrs)
	}
	if evs[0].DurUS < 0 || evs[0].StartUS <= 0 {
		t.Fatalf("nonsense timing: start %d dur %d", evs[0].StartUS, evs[0].DurUS)
	}
}

// TestNilTracer pins disabled mode: nil tracer, nil spans, every method a
// no-op, TraceID empty.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x")
	if s != nil {
		t.Fatalf("nil tracer must hand out nil spans")
	}
	s.Attr("k", 1).Child("y").End()
	s.End()
	if s.TraceID() != "" {
		t.Fatalf("nil span TraceID must be empty")
	}
	if NewTracer(nil) != nil {
		t.Fatalf("NewTracer(nil) must be nil")
	}
}

// TestTrainRecorderSummary checks totals accumulation and the JSONL step
// stream schema.
func TestTrainRecorderSummary(t *testing.T) {
	var b strings.Builder
	rec := NewTrainRecorder(NewJSONLWriter(&b))
	var phases [NumPhases]time.Duration
	phases[PhaseForward] = 100 * time.Millisecond
	phases[PhaseBackward] = 200 * time.Millisecond
	rec.RecordStep(1, 5.5, 1.25, 0.01, 350*time.Millisecond, phases)
	rec.RecordStep(2, 5.0, 1.5, 0.02, 300*time.Millisecond, phases)

	steps, wall, totals := rec.Summary()
	if steps != 2 {
		t.Fatalf("steps = %d, want 2", steps)
	}
	if wall != 0.65 {
		t.Fatalf("wall = %g, want 0.65", wall)
	}
	if totals["forward"] != 0.2 || totals["backward"] != 0.4 {
		t.Fatalf("totals = %v", totals)
	}
	if _, ok := totals["data"]; ok {
		t.Fatalf("zero phases must be omitted from the summary")
	}

	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL events, want 2", len(lines))
	}
	var ev StepEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("step event not valid JSON: %v", err)
	}
	if ev.Step != 1 || ev.Loss != 5.5 || ev.GradNorm != 1.25 || ev.LR != 0.01 {
		t.Fatalf("step event fields wrong: %+v", ev)
	}
	if ev.Phases["forward"] != 0.1 || ev.Phases["backward"] != 0.2 {
		t.Fatalf("step event phases wrong: %v", ev.Phases)
	}

	// Nil recorder: all no-ops.
	var nilRec *TrainRecorder
	nilRec.RecordStep(1, 0, 0, 0, 0, phases)
	if s, w, p := nilRec.Summary(); s != 0 || w != 0 || p != nil {
		t.Fatalf("nil recorder summary = %d %g %v", s, w, p)
	}
}

// failWriter fails every Write after the first n succeed.
type failWriter struct{ ok int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.ok > 0 {
		f.ok--
		return len(p), nil
	}
	return 0, errShort
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "disk full" }

// TestWriteErrorsCounted: telemetry write failures are not silently dropped —
// they land in the process counter and the exported metric, while Emit still
// surfaces the error to callers who want it.
func TestWriteErrorsCounted(t *testing.T) {
	before := WriteErrors()
	w := NewJSONLWriter(&failWriter{ok: 1})
	if err := w.Emit(KindStep, StepEvent{Step: 1}); err != nil {
		t.Fatalf("first write failed: %v", err)
	}
	if err := w.Emit(KindStep, StepEvent{Step: 2}); err == nil {
		t.Fatal("failed write returned nil error")
	}
	if got := WriteErrors() - before; got != 1 {
		t.Fatalf("counter moved by %d, want 1", got)
	}

	reg := NewRegistry()
	InstrumentWriteErrors(reg)
	var b strings.Builder
	reg.RenderPrometheus(&b)
	if !strings.Contains(b.String(), "apollo_obs_write_errors_total") {
		t.Fatalf("write-error metric not exported:\n%s", b.String())
	}
}
