package train

import (
	"testing"

	"apollo/internal/data"
	"apollo/internal/obs/runlog"
)

// The watchdog injection tests use runlog.Watchdog.HookLoss rather than
// corrupting batches: CrossEntropy over the synthetic corpus is bounded by
// -log(min softmax prob), so on the near-uniform toy model no batch mutation
// can produce a NaN or a 3x loss spike (measured: fixed-token targets move
// the loss by ~0.2%). HookLoss transforms only the loss the watchdog
// observes, so the full loop -> watchdog -> halt -> Result plumbing is
// exercised while the training math stays untouched.

// TestWatchdogSpikeHalts: a 10x loss spike after warmup must raise
// loss_spike and halt.
func TestWatchdogSpikeHalts(t *testing.T) {
	model, opt, corpus := dpTestSetup(t, 7)
	wd := runlog.NewWatchdog(runlog.WatchdogConfig{Window: 8, Warmup: 4, SpikeFactor: 3, Halt: true})
	wd.HookLoss = func(step int, loss float64) float64 {
		if step == 6 {
			return loss * 10
		}
		return loss
	}
	res := Pretrain(model, opt, corpus, PretrainConfig{
		Batch: 6, Seq: 16, Steps: 10, EvalEvery: 5, EvalBatches: 2, ClipNorm: 1.0,
		Watchdog: wd,
	})
	if !res.Halted || res.HaltStep != 6 || res.HaltReason != runlog.AlertLossSpike {
		t.Fatalf("spike halt wrong: %+v", res)
	}
	al := wd.Alerts()
	if len(al) != 1 || al[0].Kind != runlog.AlertLossSpike {
		t.Fatalf("alerts: %+v", al)
	}
	// The trailing window is real training loss (~4.15 on the toy model), so
	// the observed factor sits near the injected 10x.
	if al[0].Factor < 8 || al[0].Factor > 12 {
		t.Fatalf("spike factor %g, want ~10", al[0].Factor)
	}
}

// TestWatchdogQuietOnNormalRun is the false-positive guard: a normal run —
// including genuinely anomalous but non-divergent batches injected through
// data.Corpus.HookTrainBatch — must finish all steps with no NaN or spike
// alert under the default thresholds.
func TestWatchdogQuietOnNormalRun(t *testing.T) {
	model, opt, corpus := dpTestSetup(t, 5)
	batches := 0
	corpus.HookTrainBatch = func(b *data.Batch) {
		batches++
		// Every 7th batch trains on a degenerate fixed-target batch: an
		// outlier the spike detector must tolerate (its loss stays within
		// the normal band; see the measurement note above).
		if batches%7 == 0 {
			for i := range b.Targets {
				b.Targets[i] = 63
			}
		}
	}
	wd := runlog.NewWatchdog(runlog.WatchdogConfig{Halt: true})
	res := Pretrain(model, opt, corpus, PretrainConfig{
		Batch: 6, Seq: 16, Steps: 20, EvalEvery: 10, EvalBatches: 2, ClipNorm: 1.0,
		Watchdog: wd,
	})
	if res.Halted || res.Steps != 20 {
		t.Fatalf("normal run halted: %+v", res)
	}
	// Stall alerts are not counted: this run's wall times are real, and on a
	// loaded host a step can truly take StallFactor× the median. The stall
	// threshold is pinned on synthetic wall times by
	// runlog.TestWatchdogStallAlertsButNeverHalts and
	// TestWatchdogNormalNoiseIsQuiet.
	for _, a := range wd.Alerts() {
		if a.Kind != runlog.AlertStall {
			t.Fatalf("false positive: %+v", a)
		}
	}
}

// TestWatchdogOnlyLeavesResultUntouched pins the observational contract on
// the Result itself: a watchdog without a recorder must not populate the
// telemetry summary fields.
func TestWatchdogOnlyLeavesResultUntouched(t *testing.T) {
	model, opt, corpus := dpTestSetup(t, 3)
	wd := runlog.NewWatchdog(runlog.WatchdogConfig{})
	res := Pretrain(model, opt, corpus, PretrainConfig{
		Batch: 4, Seq: 8, Steps: 2, EvalBatches: 1, Watchdog: wd,
	})
	if res.PhaseSeconds != nil || res.StepWallSeconds != 0 {
		t.Fatalf("watchdog-only run populated telemetry fields: %+v", res)
	}
	if res.Halted {
		t.Fatal("halted without any alert")
	}
}
