package main

import "time"

// span is one timed call into a layer's public function: name, start, end,
// the span that caused it, and the training step all spans of that step
// share. Times are microseconds from the tracer's start.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a root
	Step    int     `json:"step"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) ms() float64 { return (s.EndUS - s.StartUS) / 1e3 }

// tracer keeps spans in memory; nothing is written until the run is over.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) us() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// pause takes seconds that just passed out of the tracer's clock: the batch
// hook's host-reference sample is the benchmark's time, not a layer's.
func (t *tracer) pause(seconds float64) {
	t.t0 = t.t0.Add(time.Duration(seconds * float64(time.Second)))
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, step, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Step: step, Name: name, StartUS: t.us()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].EndUS = t.us() }

// durations returns the milliseconds of every span called name from step
// from on.
func (t *tracer) durations(name string, from int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Step >= from {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfMS returns, per step from step from on, a span's duration minus the
// part its children cover: the time spent in the span's own code.
func (t *tracer) selfMS(name string, from int) []float64 {
	children := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.ms()
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Step >= from {
			out = append(out, s.ms()-children[s.ID])
		}
	}
	return out
}
