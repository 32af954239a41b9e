package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"
)

// Phase indexes the wall-time breakdown of one training step. There is one
// pre-training loop; which phases a run has depends on its gradient stage.
// A fused run uses Data/Forward/Backward/Step/Checkpoint/Eval and its phases
// partition the step's wall time exactly; a data-parallel run adds AllReduce
// and Broadcast, under ZeRO the Step phase is the sharded optimizer step,
// and its Forward/Backward/AllReduce are summed across concurrently running
// replicas, so their totals can exceed the step's wall time.
type Phase int

const (
	PhaseData Phase = iota
	PhaseForward
	PhaseBackward
	PhaseAllReduce
	PhaseStep
	PhaseBroadcast
	PhaseCheckpoint
	PhaseEval
	NumPhases
)

var phaseNames = [NumPhases]string{
	"data", "forward", "backward", "allreduce", "step", "broadcast", "checkpoint", "eval",
}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// PhaseNames lists every phase name in canonical (Phase index) order, for
// stable presentation of the maps Summary and train.Result hand out.
func PhaseNames() []string {
	names := make([]string, NumPhases)
	copy(names, phaseNames[:])
	return names
}

// StepEvent is the payload of one training step (kind "step" in a run's
// events.jsonl): the phases map holds seconds per Phase name.
type StepEvent struct {
	Step        int                `json:"step"`
	Loss        float64            `json:"loss"`
	GradNorm    float64            `json:"grad_norm"`
	LR          float64            `json:"lr"`
	WallSeconds float64            `json:"wall_seconds"`
	Phases      map[string]float64 `json:"phases"`
}

// JSONFloat is a float64 member of an event payload on the wire. JSON has no
// literal for NaN or ±Inf — json.Marshal refuses them, which used to drop
// exactly the events a diverging run exists to record — so a non-finite
// value travels as null, with its exact text in a sibling "<name>_text"
// member (NonFiniteText; the ExactFloat convention of serve's responses).
// A finite value marshals to the bytes a plain float64 does.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	if NonFiniteText(float64(f)) != "" {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// NonFiniteText is the "<name>_text" member for v: its shortest round-trip
// text ("NaN", "+Inf", "-Inf") when v is not finite, "" (omitted) otherwise.
func NonFiniteText(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	return ""
}

// FloatFromText puts a "<name>_text" member back: a non-empty text replaces
// the value its null decoded to.
func FloatFromText(dst *float64, text string) error {
	if text == "" {
		return nil
	}
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return fmt.Errorf("obs: event float text %q: %w", text, err)
	}
	*dst = v
	return nil
}

// stepWire is StepEvent as events.jsonl carries it.
type stepWire struct {
	Step         int                `json:"step"`
	Loss         JSONFloat          `json:"loss"`
	LossText     string             `json:"loss_text,omitempty"`
	GradNorm     JSONFloat          `json:"grad_norm"`
	GradNormText string             `json:"grad_norm_text,omitempty"`
	LR           float64            `json:"lr"`
	WallSeconds  float64            `json:"wall_seconds"`
	Phases       map[string]float64 `json:"phases"`
}

// MarshalJSON implements json.Marshaler.
func (e StepEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(stepWire{
		Step: e.Step, Loss: JSONFloat(e.Loss), LossText: NonFiniteText(e.Loss),
		GradNorm: JSONFloat(e.GradNorm), GradNormText: NonFiniteText(e.GradNorm),
		LR: e.LR, WallSeconds: e.WallSeconds, Phases: e.Phases,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *StepEvent) UnmarshalJSON(b []byte) error {
	var w stepWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*e = StepEvent{Step: w.Step, Loss: float64(w.Loss), GradNorm: float64(w.GradNorm),
		LR: w.LR, WallSeconds: w.WallSeconds, Phases: w.Phases}
	if err := FloatFromText(&e.Loss, w.LossText); err != nil {
		return err
	}
	return FloatFromText(&e.GradNorm, w.GradNormText)
}

// TrainRecorder accumulates per-step phase timings and optionally emits
// one StepEvent per step onto the event stream. Nil-safe: a nil recorder makes every
// call a single branch, which is how the loop runs untelemetered.
type TrainRecorder struct {
	w *JSONLWriter

	mu     sync.Mutex
	steps  int
	wall   time.Duration
	totals [NumPhases]time.Duration
}

// NewTrainRecorder builds a recorder; w == nil keeps the summary (phase
// totals for train.Result) without emitting events.
func NewTrainRecorder(w *JSONLWriter) *TrainRecorder {
	return &TrainRecorder{w: w}
}

// RecordStep folds one step's measurements into the totals and emits the
// step event when a writer is configured.
func (r *TrainRecorder) RecordStep(step int, loss, gradNorm, lr float64, wall time.Duration, phases [NumPhases]time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.steps++
	r.wall += wall
	for i := range phases {
		r.totals[i] += phases[i]
	}
	r.mu.Unlock()
	if r.w == nil {
		return
	}
	ev := StepEvent{
		Step: step, Loss: loss, GradNorm: gradNorm, LR: lr,
		WallSeconds: wall.Seconds(),
		Phases:      map[string]float64{},
	}
	for i, d := range phases {
		if d > 0 {
			ev.Phases[Phase(i).String()] = d.Seconds()
		}
	}
	r.w.Emit(KindStep, ev)
}

// Summary returns the recorded step count, total step wall seconds, and
// the phase totals keyed by phase name (phases never hit are omitted).
func (r *TrainRecorder) Summary() (steps int, wallSeconds float64, phases map[string]float64) {
	if r == nil {
		return 0, 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	phases = map[string]float64{}
	for i, d := range r.totals {
		if d > 0 {
			phases[Phase(i).String()] = d.Seconds()
		}
	}
	return r.steps, r.wall.Seconds(), phases
}
