package runlog

import (
	"encoding/json"
	"math"
	"sort"
	"time"

	"apollo/internal/obs"
)

// Alert kinds the watchdog raises.
const (
	AlertNaNLoss   = "nan_loss"   // loss is NaN or ±Inf
	AlertNaNGrad   = "nan_grad"   // gradient norm is NaN or ±Inf
	AlertLossSpike = "loss_spike" // loss > SpikeFactor × trailing-window median
	AlertStall     = "stall"      // step wall > StallFactor × trailing median wall
)

// AlertEvent is the payload of one training-health alert (kind "alert" in
// runs/<id>/events.jsonl). Which alert it is travels as "alert": "kind" is
// the stream's own discriminator.
type AlertEvent struct {
	Step        int     `json:"step"`
	Kind        string  `json:"alert"`
	Loss        float64 `json:"loss"`
	GradNorm    float64 `json:"grad_norm,omitempty"`
	Median      float64 `json:"median,omitempty"` // trailing-window reference value
	Factor      float64 `json:"factor,omitempty"` // observed / median
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	Halt        bool    `json:"halt"`
	UnixUS      int64   `json:"unix_us"`
}

// alertWire is AlertEvent as events.jsonl carries it: the two members a
// nan_loss / nan_grad alert makes non-finite are obs.JSONFloat, null beside
// their exact text.
type alertWire struct {
	Step         int           `json:"step"`
	Kind         string        `json:"alert"`
	Loss         obs.JSONFloat `json:"loss"`
	LossText     string        `json:"loss_text,omitempty"`
	GradNorm     obs.JSONFloat `json:"grad_norm,omitempty"`
	GradNormText string        `json:"grad_norm_text,omitempty"`
	Median       float64       `json:"median,omitempty"`
	Factor       float64       `json:"factor,omitempty"`
	WallSeconds  float64       `json:"wall_seconds,omitempty"`
	Halt         bool          `json:"halt"`
	UnixUS       int64         `json:"unix_us"`
}

// MarshalJSON implements json.Marshaler.
func (e AlertEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(alertWire{
		Step: e.Step, Kind: e.Kind, Loss: obs.JSONFloat(e.Loss), LossText: obs.NonFiniteText(e.Loss),
		GradNorm: obs.JSONFloat(e.GradNorm), GradNormText: obs.NonFiniteText(e.GradNorm),
		Median: e.Median, Factor: e.Factor, WallSeconds: e.WallSeconds, Halt: e.Halt, UnixUS: e.UnixUS,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *AlertEvent) UnmarshalJSON(b []byte) error {
	var w alertWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*e = AlertEvent{Step: w.Step, Kind: w.Kind, Loss: float64(w.Loss), GradNorm: float64(w.GradNorm),
		Median: w.Median, Factor: w.Factor, WallSeconds: w.WallSeconds, Halt: w.Halt, UnixUS: w.UnixUS}
	if err := obs.FloatFromText(&e.Loss, w.LossText); err != nil {
		return err
	}
	return obs.FloatFromText(&e.GradNorm, w.GradNormText)
}

// WatchdogConfig tunes the health checks. The zero value selects the
// defaults in parentheses.
type WatchdogConfig struct {
	// Window is the trailing-step count the loss/wall medians are computed
	// over (32).
	Window int
	// SpikeFactor flags a step whose loss exceeds this multiple of the
	// trailing-window median (3). <= 0 keeps the default; set very large to
	// effectively disable spike detection.
	SpikeFactor float64
	// StallFactor flags a step whose wall time exceeds this multiple of the
	// trailing median step wall (10). Stalls alert but never halt — a slow
	// step is suspicious, not divergent.
	StallFactor float64
	// Warmup is how many steps must fill the window before spike/stall
	// checks arm (8); NaN/Inf checks are always armed.
	Warmup int
	// Halt aborts the run on divergence (NaN/Inf or loss spike) — the
	// -halt-on-divergence flag. Alerts are recorded either way.
	Halt bool
	// Emit receives every alert (the ledger's Run.Alert, a logger, …).
	Emit func(AlertEvent)
	// Metrics, when set, counts alerts per kind in
	// apollo_train_alerts_total{kind=…}.
	Metrics *obs.Registry
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.SpikeFactor <= 0 {
		c.SpikeFactor = 3
	}
	if c.StallFactor <= 0 {
		c.StallFactor = 10
	}
	if c.Warmup <= 0 {
		c.Warmup = 8
	}
	return c
}

// Watchdog is the training-health monitor the train loop feeds once per
// step: it flags NaN/Inf loss or gradient norm, loss spikes above a multiple
// of the trailing-window median, and stalled steps, raising structured
// alerts into the ledger and obs counters. Purely observational — it reads
// the numbers the loop already computed and never touches model state, so a
// watched run is bit-identical to an unwatched one; with Halt set it may
// additionally stop the loop after the offending step completes.
//
// A Watchdog is owned by one training loop: ObserveStep must not be called
// concurrently. Nil-receiver safe — a nil watchdog costs one branch per step.
type Watchdog struct {
	cfg WatchdogConfig

	losses []float64 // trailing window, ring
	walls  []float64
	n      int // steps observed into the rings

	alerts []AlertEvent
	halted bool

	scratch []float64 // median workspace, reused

	// HookLoss, when non-nil, transforms the observed loss before any check
	// — a test seam for injecting NaN or spikes at a chosen step without
	// perturbing the actual training math (the returned value is only what
	// the watchdog sees).
	HookLoss func(step int, loss float64) float64
}

// NewWatchdog builds a watchdog; the zero config is fully usable.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	cfg = cfg.withDefaults()
	return &Watchdog{
		cfg:     cfg,
		losses:  make([]float64, 0, cfg.Window),
		walls:   make([]float64, 0, cfg.Window),
		scratch: make([]float64, 0, cfg.Window),
	}
}

// ObserveStep feeds one completed step and reports whether the run should
// halt (always false unless the config's Halt is set). step is 1-based.
func (w *Watchdog) ObserveStep(step int, loss, gradNorm, wallSeconds float64) (halt bool) {
	if w == nil {
		return false
	}
	if w.HookLoss != nil {
		loss = w.HookLoss(step, loss)
	}

	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	armed := w.n >= w.cfg.Warmup

	switch {
	case bad(loss):
		w.raise(AlertEvent{Step: step, Kind: AlertNaNLoss, Loss: loss, GradNorm: gradNorm,
			WallSeconds: wallSeconds, Halt: w.cfg.Halt})
	case bad(gradNorm):
		w.raise(AlertEvent{Step: step, Kind: AlertNaNGrad, Loss: loss, GradNorm: gradNorm,
			WallSeconds: wallSeconds, Halt: w.cfg.Halt})
	case armed:
		if med := w.median(w.losses); med > 0 && loss > w.cfg.SpikeFactor*med {
			w.raise(AlertEvent{Step: step, Kind: AlertLossSpike, Loss: loss, GradNorm: gradNorm,
				Median: med, Factor: loss / med, WallSeconds: wallSeconds, Halt: w.cfg.Halt})
		}
	}
	if armed && wallSeconds > 0 {
		if med := w.median(w.walls); med > 0 && wallSeconds > w.cfg.StallFactor*med {
			w.raise(AlertEvent{Step: step, Kind: AlertStall, Loss: loss,
				Median: med, Factor: wallSeconds / med, WallSeconds: wallSeconds})
		}
	}

	// Fold the step into the trailing windows after the checks, so every
	// comparison is against strictly preceding steps. NaN losses stay out —
	// one poisoned sample would turn every later median NaN.
	if !bad(loss) {
		w.push(&w.losses, loss)
	}
	if wallSeconds > 0 {
		w.push(&w.walls, wallSeconds)
	}
	w.n++
	return w.halted
}

// raise records and fans out one alert.
func (w *Watchdog) raise(ev AlertEvent) {
	ev.UnixUS = time.Now().UnixMicro()
	w.alerts = append(w.alerts, ev)
	if ev.Halt {
		w.halted = true
	}
	if w.cfg.Metrics != nil {
		w.cfg.Metrics.Counter("apollo_train_alerts_total",
			"Training-health alerts raised by the watchdog, by kind.",
			obs.Label{Key: "kind", Value: ev.Kind}).Inc()
	}
	if w.cfg.Emit != nil {
		w.cfg.Emit(ev)
	}
}

// push appends into a ring bounded at Window.
func (w *Watchdog) push(ring *[]float64, v float64) {
	r := *ring
	if len(r) < w.cfg.Window {
		*ring = append(r, v)
		return
	}
	copy(r, r[1:])
	r[len(r)-1] = v
}

// median of the ring (0 when empty). Sorting ≤ Window elements once per
// step is noise next to a forward/backward pass.
func (w *Watchdog) median(ring []float64) float64 {
	if len(ring) == 0 {
		return 0
	}
	s := append(w.scratch[:0], ring...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// Alerts returns the alerts raised so far (nil-safe).
func (w *Watchdog) Alerts() []AlertEvent {
	if w == nil {
		return nil
	}
	return w.alerts
}

// Halted reports whether a halting alert fired (nil-safe).
func (w *Watchdog) Halted() bool { return w != nil && w.halted }
