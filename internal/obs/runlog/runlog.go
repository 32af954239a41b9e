// Package runlog is the persistent experiment ledger: every training run
// writes a directory under a runs root —
//
//	runs/<id>/manifest.json   identity, config, host, timing, exit status
//	runs/<id>/events.jsonl    the run's one event stream
//
// — turning per-process telemetry into a queryable record that outlives the
// process. Every line of events.jsonl is one JSON object whose leading
// "kind" says what it is: "step" (obs.StepEvent, one per training step),
// "mem" (memprof.Sample, the memory timeline), "alert" (AlertEvent,
// watchdog.go) or "span" (a finished obs.Span); within a step the order is
// step → mem → alert. All emitters share the run's single obs.JSONLWriter
// (Run.Events), and one reader (ReadEvents) reads it back — a new signal is
// a new kind, never another file.
//
// The writer half (Run) is crash-honest: the manifest is written with
// status "running" before the first step, rewritten atomically on Finalize,
// and a run killed hard still leaves a readable entry. The reader half
// (reader.go) lists runs and loads series; diff.go aligns two runs to
// report first-divergence step, loss deltas at checkpoints, phase-time
// breakdown deltas and step-wall quantiles — the substrate of the
// `apollo-runs` CLI and the CI regression gate.
//
// Determinism contract: like the rest of internal/obs, the ledger records —
// it never feeds anything back into training. A run with a ledger attached
// is bit-identical to one without (train's TestObserverParity).
package runlog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"apollo/internal/obs"
)

// ManifestVersion is the ledger layout version a manifest declares. Version
// 2 is the one-stream layout (events.jsonl); version 1 directories kept
// three per-kind files and are not read — ReadManifest rejects every other
// version by name rather than misreading it.
const ManifestVersion = 2

// Exit statuses a finalized manifest can carry. A manifest still reading
// StatusRunning belongs to a live run — or to one that died too hard to
// finalize (kill -9), which is exactly the information a dangling "running"
// conveys.
const (
	StatusRunning     = "running"
	StatusOK          = "ok"
	StatusHalted      = "halted" // watchdog -halt-on-divergence abort
	StatusFailed      = "failed"
	StatusPanic       = "panic"
	StatusInterrupted = "interrupted"
)

// Host identifies the machine a run executed on — the fields that make two
// wall-time series comparable (or explain why they are not).
type Host struct {
	Hostname  string `json:"hostname,omitempty"`
	Cores     int    `json:"cores"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
}

// CurrentHost captures the executing machine.
func CurrentHost() Host {
	h, _ := os.Hostname()
	return Host{
		Hostname:  h,
		Cores:     runtime.NumCPU(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		GoVersion: runtime.Version(),
	}
}

// Manifest is one run's identity card: everything needed to rerun it, plus
// the outcome. Written twice — at creation (Status "running", zero finals)
// and atomically rewritten by Finalize.
type Manifest struct {
	Version int    `json:"version"`
	ID      string `json:"id"`
	Command string `json:"command"` // "apollo-pretrain", "apollo-bench", …

	// Config is the full flag/knob set of the run (size, optimizer, steps,
	// batch, seq, rank, lr, seed, replicas, zero, accum, workers, …) as the
	// invoking command spelled it.
	Config map[string]any `json:"config,omitempty"`

	Optimizer string `json:"optimizer,omitempty"`
	Seed      uint64 `json:"seed"`
	Replicas  int    `json:"replicas,omitempty"`
	ZeRO      bool   `json:"zero,omitempty"`
	Host      Host   `json:"host"`

	Start  time.Time `json:"start"`
	End    time.Time `json:"end,omitzero"`
	Status string    `json:"status"`

	// Finals, populated by Finalize.
	Steps           int                `json:"steps,omitempty"`
	FinalLoss       float64            `json:"final_loss,omitempty"`
	FinalPPL        float64            `json:"final_ppl,omitempty"`
	StepWallSeconds float64            `json:"step_wall_seconds,omitempty"`
	PhaseSeconds    map[string]float64 `json:"phase_seconds,omitempty"`
	Alerts          int                `json:"alerts,omitempty"`
	Error           string             `json:"error,omitempty"`
}

// manifestWire is Manifest as manifest.json carries it: the two finals a
// diverged run leaves non-finite travel the way a step event's loss does
// (obs.JSONFloat: null beside the exact text in "<name>_text"), so the run
// that most needs its exit status on disk can still be finalized. The
// shallower members shadow the embedded ones of the same JSON name.
type manifestWire struct {
	plainManifest
	FinalLoss     obs.JSONFloat `json:"final_loss,omitzero"`
	FinalLossText string        `json:"final_loss_text,omitempty"`
	FinalPPL      obs.JSONFloat `json:"final_ppl,omitzero"`
	FinalPPLText  string        `json:"final_ppl_text,omitempty"`
}

// plainManifest is Manifest without its methods.
type plainManifest Manifest

// MarshalJSON implements json.Marshaler.
func (m Manifest) MarshalJSON() ([]byte, error) {
	return json.Marshal(manifestWire{
		plainManifest: plainManifest(m),
		FinalLoss:     obs.JSONFloat(m.FinalLoss), FinalLossText: obs.NonFiniteText(m.FinalLoss),
		FinalPPL: obs.JSONFloat(m.FinalPPL), FinalPPLText: obs.NonFiniteText(m.FinalPPL),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Manifest) UnmarshalJSON(b []byte) error {
	var w manifestWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*m = Manifest(w.plainManifest)
	m.FinalLoss, m.FinalPPL = float64(w.FinalLoss), float64(w.FinalPPL) // a null leaves 0 for the text to replace
	if err := obs.FloatFromText(&m.FinalLoss, w.FinalLossText); err != nil {
		return err
	}
	return obs.FloatFromText(&m.FinalPPL, w.FinalPPLText)
}

// Final carries the end-of-run numbers into Finalize.
type Final struct {
	Steps           int
	FinalLoss       float64
	FinalPPL        float64
	StepWallSeconds float64
	PhaseSeconds    map[string]float64
	Error           string
}

// Ledger file names inside a run directory.
const (
	ManifestFile = "manifest.json"
	EventsFile   = "events.jsonl"
)

// runSeq disambiguates IDs minted within one timestamp tick by one process.
var runSeq atomic.Uint64

// NewID mints a run ID: UTC timestamp, a sanitized name (command, optimizer,
// size, …), the PID and a process-local sequence number — unique across
// concurrent runs on one host without coordination, and sortable by start
// time.
func NewID(parts ...string) string {
	name := sanitizeID(strings.Join(parts, "-"))
	return fmt.Sprintf("%s-%s-p%d.%d",
		time.Now().UTC().Format("20060102-150405"), name, os.Getpid(), runSeq.Add(1))
}

// sanitizeID keeps IDs filesystem- and shell-safe.
func sanitizeID(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			b.WriteRune(c)
		case c == ' ', c == '/':
			b.WriteByte('-')
		}
	}
	if b.Len() == 0 {
		return "run"
	}
	return b.String()
}

// Run is the writer half of one ledger entry. All methods are nil-receiver
// safe so callers wire a run (or not) without branching; Alert is
// additionally safe for concurrent use (the watchdog may fire from the
// training goroutine while a signal handler finalizes).
type Run struct {
	dir      string
	manifest Manifest
	events   *obs.JSONLWriter

	mu        sync.Mutex
	alertN    int
	finalized bool
}

// Create starts a ledger entry under root: makes runs/<id>/, writes the
// initial manifest (status "running"), and opens the event stream.
// A zero m.ID gets a minted one; Start defaults to now; Version and Status
// are always stamped here.
func Create(root string, m Manifest) (*Run, error) {
	if m.ID == "" {
		m.ID = NewID(m.Command, m.Optimizer)
	}
	m.Version = ManifestVersion
	m.Status = StatusRunning
	if m.Start.IsZero() {
		m.Start = time.Now().UTC()
	}
	if m.Host == (Host{}) {
		m.Host = CurrentHost()
	}
	dir := filepath.Join(root, m.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	r := &Run{dir: dir, manifest: m}
	if err := writeManifest(dir, m); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, EventsFile))
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	r.events = obs.NewJSONLWriter(f)
	return r, nil
}

// ID returns the run's identifier ("" on a nil run).
func (r *Run) ID() string {
	if r == nil {
		return ""
	}
	return r.manifest.ID
}

// Dir returns the run directory ("" on a nil run).
func (r *Run) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// Events returns the run's event stream — the one writer the step recorder,
// the memory profiler, a tracer and Alert all emit through (nil on a nil
// run, which every one of them treats as "record nothing").
func (r *Run) Events() *obs.JSONLWriter {
	if r == nil {
		return nil
	}
	return r.events
}

// Alert appends one structured alert to the event stream. The watchdog calls
// this through its Emit hook; write failures are counted by the obs layer
// (apollo_obs_write_errors_total), never dropped silently.
func (r *Run) Alert(ev AlertEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.alertN++
	r.mu.Unlock()
	r.events.Emit(obs.KindAlert, ev)
}

// Finalize stamps the end time, exit status and final metrics into the
// manifest (atomic rewrite) and closes the event stream under the writer's
// lock, so an emitter racing the close tears no line. Idempotent: only the
// first call wins, so the normal-exit defer, the failure path and the
// signal handler can all call it without coordinating. Nil-receiver safe.
func (r *Run) Finalize(status string, fin Final) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.finalized {
		r.mu.Unlock()
		return nil
	}
	r.finalized = true
	m := r.manifest
	m.End = time.Now().UTC()
	m.Status = status
	m.Steps = fin.Steps
	m.FinalLoss = fin.FinalLoss
	m.FinalPPL = fin.FinalPPL
	m.StepWallSeconds = fin.StepWallSeconds
	m.PhaseSeconds = fin.PhaseSeconds
	m.Alerts = r.alertN
	m.Error = fin.Error
	r.manifest = m
	r.mu.Unlock()

	err := writeManifest(r.dir, m)
	if cerr := r.events.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeManifest writes manifest.json atomically (temp + rename) so a reader
// — `apollo-runs watch`, a concurrent `list` — never observes a torn file.
func writeManifest(dir string, m Manifest) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("runlog: encode manifest: %w", err)
	}
	blob = append(blob, '\n')
	tmp := filepath.Join(dir, ManifestFile+".tmp")
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestFile)); err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	return nil
}
