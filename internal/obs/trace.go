package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds of the one JSONL stream a process writes: every line is the
// payload's own JSON object with a leading "kind" member naming which of
// these it is. A new signal is a new kind, not a new file.
const (
	KindStep  = "step"  // StepEvent, one per training step
	KindAlert = "alert" // runlog.AlertEvent, training-health alerts
	KindMem   = "mem"   // memprof.Sample, the memory timeline
	KindSpan  = "span"  // one finished Span
)

// JSONLWriter is the one event sink: it serializes values as one JSON object
// per line onto an io.Writer under a single mutex, so concurrent emitters
// (the step recorder, the memory sampler, request spans, the watchdog) never
// interleave bytes within a line. Nil-safe: a nil writer drops events at one
// branch.
type JSONLWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewJSONLWriter wraps w; a nil w yields a nil (disabled) writer.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	if w == nil {
		return nil
	}
	return &JSONLWriter{w: w}
}

// Telemetry write failures must not vanish: most emitters (Span.End,
// TrainRecorder.RecordStep, the run ledger) have no caller positioned to
// handle the error, so Emit itself counts every failure into a process-wide
// counter — exported as apollo_obs_write_errors_total via
// InstrumentWriteErrors — and logs the first one to stderr.
var (
	writeErrors     atomic.Int64
	writeErrLogOnce sync.Once
)

// WriteErrors returns how many telemetry JSONL writes have failed in this
// process.
func WriteErrors() int64 { return writeErrors.Load() }

func noteWriteError(err error) {
	writeErrors.Add(1)
	writeErrLogOnce.Do(func() {
		log.Printf("obs: telemetry write failed (logged once; see apollo_obs_write_errors_total): %v", err)
	})
}

// CountWriteError routes a writer cleanup error — a Close/Flush/Sync on a
// telemetry stream, ledger file or checkpoint writer with no caller in a
// position to act — into the same accounting as failed JSONL emits: counted
// in apollo_obs_write_errors_total, first occurrence logged. It returns err
// unchanged so call sites can both account and propagate. A nil err is a
// no-op, so `obs.CountWriteError(f.Close())` is the standard crash-honest
// discard.
func CountWriteError(err error) error {
	if err != nil {
		noteWriteError(err)
	}
	return err
}

// InstrumentWriteErrors exposes the process-wide telemetry write-failure
// count on a registry as apollo_obs_write_errors_total. Nil-safe no-op.
func InstrumentWriteErrors(r *Registry) {
	r.CounterFunc("apollo_obs_write_errors_total",
		"Telemetry JSONL writes (spans, step events, ledger entries) that failed.",
		WriteErrors)
}

// Emit appends v as one line of the given kind: v must marshal to a JSON
// object, and the kind is spliced in as its first member so the payload
// bytes are exactly what json.Marshal produced. Failures are returned and
// counted (WriteErrors) — callers that cannot act on the error may drop it
// knowing it was recorded.
func (jw *JSONLWriter) Emit(kind string, v any) error {
	if jw == nil {
		return nil
	}
	blob, err := json.Marshal(v)
	if err == nil && (len(blob) < 2 || blob[0] != '{') {
		err = fmt.Errorf("obs: %s event payload %T is not a JSON object", kind, v)
	}
	if err != nil {
		noteWriteError(err)
		return err
	}
	sep := ","
	if len(blob) == 2 { // v marshalled to {}
		sep = ""
	}
	line := fmt.Appendf(nil, "{\"kind\":%q%s%s\n", kind, sep, blob[1:])
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if _, err = jw.w.Write(line); err != nil {
		noteWriteError(err)
	}
	return err
}

// Close closes the underlying writer when it is an io.Closer, under the
// emit lock so no line is torn by the close. Emits after Close fail (and are
// counted) rather than vanish.
func (jw *JSONLWriter) Close() error {
	if jw == nil {
		return nil
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if c, ok := jw.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Tracer hands out spans and writes one JSONL event per finished span.
// Trace IDs double as request IDs: every root span starts a new trace whose
// ID the serve layer echoes in the X-Request-Id response header. Nil-safe —
// a nil tracer hands out nil spans whose methods all no-op.
type Tracer struct {
	w      *JSONLWriter
	traces atomic.Uint64
	spans  atomic.Uint64
}

// NewTracer emits span events to w; a nil w yields a nil (disabled) tracer.
func NewTracer(w *JSONLWriter) *Tracer {
	if w == nil {
		return nil
	}
	return &Tracer{w: w}
}

// spanEvent is the payload of one finished span (kind "span").
type spanEvent struct {
	Trace   string         `json:"trace"`
	Span    string         `json:"span"`
	Parent  string         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"` // µs since Unix epoch
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Span is one timed unit of work. Start/Child stamp the clock; End emits
// the event. A span is owned by one goroutine; Attr/End must not race.
type Span struct {
	t      *Tracer
	trace  uint64
	id     uint64
	parent uint64 // 0 = root
	name   string
	start  time.Time
	attrs  map[string]any
}

// Start opens a root span in a fresh trace.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		t:     t,
		trace: t.traces.Add(1),
		id:    t.spans.Add(1),
		name:  name,
		start: time.Now(),
	}
}

// Child opens a sub-span in the same trace.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		t:      s.t,
		trace:  s.trace,
		id:     s.t.spans.Add(1),
		parent: s.id,
		name:   name,
		start:  time.Now(),
	}
}

// Attr attaches one key=value pair, returning s for chaining.
func (s *Span) Attr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = map[string]any{}
	}
	s.attrs[key] = value
	return s
}

// TraceID returns the span's trace (request) identifier, "" when disabled.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("t%d", s.trace)
}

// End emits the span's JSONL event.
func (s *Span) End() {
	if s == nil {
		return
	}
	ev := spanEvent{
		Trace:   fmt.Sprintf("t%d", s.trace),
		Span:    fmt.Sprintf("s%d", s.id),
		Name:    s.name,
		StartUS: s.start.UnixMicro(),
		DurUS:   time.Since(s.start).Microseconds(),
		Attrs:   s.attrs,
	}
	if s.parent != 0 {
		ev.Parent = fmt.Sprintf("s%d", s.parent)
	}
	s.t.w.Emit(KindSpan, ev)
}
