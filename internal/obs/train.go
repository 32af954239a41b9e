package obs

import (
	"sync"
	"time"
)

// Phase indexes the wall-time breakdown of one training step. There is one
// pre-training loop; which phases a run has depends on its gradient stage.
// A fused run uses Data/Forward/Backward/Step/Checkpoint/Eval and its phases
// partition the step's wall time exactly; a data-parallel run adds AllReduce
// and Broadcast, under ZeRO the Step phase is the sharded optimizer step,
// and its Forward/Backward are summed across concurrently running replicas,
// so their totals can exceed the step's wall time.
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
