package train

import (
	"encoding/json"
	"strings"
	"testing"

	"apollo/internal/obs"
)

// TestTelemetryStreamAndSummary checks the step-event stream end to end on
// a fused run: the JSONL stream parses, steps are sequential, per-step
// phases are positive and sum to at most the step's wall time, and the
// Result summary agrees with the stream.
func TestTelemetryStreamAndSummary(t *testing.T) {
	const seed = 5
	model, opt, corpus := dpTestSetup(t, seed)
	var b strings.Builder
	rec := obs.NewTrainRecorder(obs.NewJSONLWriter(&b))
	res := Pretrain(model, opt, corpus, PretrainConfig{
		Batch: 6, Seq: 16, Steps: 5, EvalEvery: 2, EvalBatches: 2, ClipNorm: 1.0,
		Telemetry: rec,
	})

	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d step events, want 5", len(lines))
	}
	var streamWall, streamPhases float64
	for i, line := range lines {
		var ev obs.StepEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("step %d not valid JSON: %v\n%s", i, err, line)
		}
		if ev.Step != i+1 {
			t.Fatalf("step %d event carries step=%d", i, ev.Step)
		}
		if ev.Loss <= 0 || ev.GradNorm <= 0 || ev.LR <= 0 {
			t.Fatalf("step %d: non-positive loss/gradnorm/lr: %+v", i, ev)
		}
		var phaseSum float64
		for name, s := range ev.Phases {
			if s < 0 {
				t.Fatalf("step %d phase %s negative: %g", i, name, s)
			}
			phaseSum += s
		}
		// Fused-stage phases partition the step; allow slack for the
		// unattributed slivers between laps (loop bookkeeping, logging).
		if phaseSum > ev.WallSeconds*1.05+1e-4 {
			t.Fatalf("step %d phases sum to %g > wall %g", i, phaseSum, ev.WallSeconds)
		}
		for _, must := range []string{"data", "forward", "backward", "step"} {
			if ev.Phases[must] <= 0 {
				t.Fatalf("step %d missing phase %q: %v", i, must, ev.Phases)
			}
		}
		streamWall += ev.WallSeconds
		streamPhases += phaseSum
	}

	if res.PhaseSeconds == nil {
		t.Fatalf("Result.PhaseSeconds not populated")
	}
	if res.StepWallSeconds <= 0 {
		t.Fatalf("Result.StepWallSeconds = %g", res.StepWallSeconds)
	}
	if d := res.StepWallSeconds - streamWall; d > 1e-9 || d < -1e-9 {
		t.Fatalf("summary wall %g != streamed wall %g", res.StepWallSeconds, streamWall)
	}
	var summaryPhases float64
	for _, s := range res.PhaseSeconds {
		summaryPhases += s
	}
	if d := summaryPhases - streamPhases; d > 1e-9 || d < -1e-9 {
		t.Fatalf("summary phases %g != streamed phases %g", summaryPhases, streamPhases)
	}
	// The tracked phases must account for the bulk of the stepped wall time
	// (forward/backward dominate; slack covers scheduler noise on tiny models).
	if summaryPhases < 0.5*res.StepWallSeconds {
		t.Fatalf("phases cover only %g of %g wall seconds", summaryPhases, res.StepWallSeconds)
	}
}

// TestTelemetryDisabledLeavesResultUntouched pins the default: no recorder,
// no PhaseSeconds.
func TestTelemetryDisabledLeavesResultUntouched(t *testing.T) {
	model, opt, corpus := dpTestSetup(t, 3)
	res := Pretrain(model, opt, corpus, PretrainConfig{Batch: 4, Seq: 8, Steps: 2, EvalBatches: 1})
	if res.PhaseSeconds != nil || res.StepWallSeconds != 0 {
		t.Fatalf("untelemetered run populated telemetry fields: %+v %v", res.PhaseSeconds, res.StepWallSeconds)
	}
}
