package train

import (
	"bytes"
	"maps"
	"math"
	"slices"
	"testing"

	"apollo/internal/core"
	"apollo/internal/nn"
	"apollo/internal/obs"
	"apollo/internal/obs/memprof"
	"apollo/internal/obs/runlog"
	"apollo/internal/optim"
	"apollo/internal/zero"
)

// The observer contracts, checked once over every gradient mode of the one
// loop. A mode picks a float32 summation order, never a code path through
// the observers, so each contract is a table over loopModes rather than a
// test per (observer, loop) pair.

type loopMode struct {
	name     string
	accum    int
	replicas int // 0 = fused stage
	zero     bool
	// unclipped trains APOLLO with no ClipNorm: from the second step on, the
	// fused stage steps each released group while backward goes on.
	unclipped bool
}

var loopModes = []loopMode{
	{name: "fused"},
	{name: "fused/accum=2", accum: 2},
	{name: "replicas=3", replicas: 3},
	{name: "replicas=3/zero", replicas: 3, zero: true},
	{name: "fused/unclipped/APOLLO", unclipped: true},
}

// phases is the phase-key set a mode's telemetry must carry — exactly: a
// zero-length lap of a phase the mode does not have would still add a key.
func (m loopMode) phases() []string {
	keys := []string{"backward", "checkpoint", "data", "eval", "forward", "step"}
	if m.replicas > 0 {
		keys = append(keys, "allreduce", "broadcast")
		slices.Sort(keys)
	}
	return keys
}

// run trains a fresh model in this mode for steps steps; observe attaches
// whatever observers the caller wants to the config.
func (m loopMode) run(t *testing.T, seed uint64, steps int, observe func(*PretrainConfig)) (Result, *nn.Model, optim.Optimizer) {
	t.Helper()
	model, _, corpus := dpTestSetup(t, seed)
	h := optim.Hyper{LR: 1e-3, WeightDecay: 0.01}
	build := func() optim.Optimizer { return optim.NewAdamW(h) }
	if m.unclipped {
		build = func() optim.Optimizer { return core.New(h, core.Config{Rank: 4, Seed: 11, UpdateGap: 3}) }
	}
	opt := build()
	if m.zero {
		opt = zero.NewSharded(build(), m.replicas)
	}
	cfg := dpTestConfig(m.replicas).PretrainConfig
	cfg.Steps = steps
	cfg.Accum = m.accum
	if m.unclipped {
		cfg.ClipNorm = 0
	}
	if observe != nil {
		observe(&cfg)
	}
	if m.replicas > 0 {
		return DPPretrain(model, opt, corpus, DPConfig{PretrainConfig: cfg, Replicas: m.replicas}), model, opt
	}
	return Pretrain(model, opt, corpus, cfg), model, opt
}

// TestObserverParity is the observational half of the determinism contract:
// in every mode, a run with a TrainRecorder, a run-ledger entry, an armed
// watchdog AND a memory profiler sampling every step is bit-identical to a
// bare one — weights, metric series, final perplexity — and what the
// observers recorded is what the mode actually did. In the unclipped mode the
// loop takes the gradient norm after the overlapped step, so the recorded
// grad_norm series must also equal, bit for bit, the one a run takes before
// any step: the same run under ClipNorm +Inf, which never clips but steps the
// whole list after backward.
func TestObserverParity(t *testing.T) {
	const seed, steps = 42, 8
	for _, m := range loopModes {
		t.Run(m.name, func(t *testing.T) {
			ref, refModel, _ := m.run(t, seed, steps, nil)

			ledger, err := runlog.Create(t.TempDir(), runlog.Manifest{ID: "parity", Command: "test"})
			if err != nil {
				t.Fatal(err)
			}
			wd := runlog.NewWatchdog(runlog.WatchdogConfig{Halt: true, Emit: ledger.Alert})
			got, gotModel, opt := m.run(t, seed, steps, func(cfg *PretrainConfig) {
				cfg.Telemetry = obs.NewTrainRecorder(ledger.Events())
				cfg.Watchdog = wd
				cfg.MemProf = memprof.New(memprof.Config{Out: ledger.Events()})
			})

			// Bit-for-bit the bare run.
			if !slices.Equal(got.Series, ref.Series) {
				t.Fatalf("series differs under observation:\n  got  %+v\n  want %+v", got.Series, ref.Series)
			}
			if got.FinalValPPL != ref.FinalValPPL {
				t.Fatalf("final ppl %v != %v under observation", got.FinalValPPL, ref.FinalValPPL)
			}
			refParams := refModel.Params().List()
			for i, p := range gotModel.Params().List() {
				if !p.W.Equal(refParams[i].W) {
					t.Fatalf("weight %s differs bitwise under observation", p.Name)
				}
			}

			// Ledger: the step series landed, a healthy run raised nothing.
			if wd.Halted() || len(wd.Alerts()) != 0 {
				t.Fatalf("watchdog alerted on a healthy run: %+v", wd.Alerts())
			}
			status, fin := got.Final()
			if err := ledger.Finalize(status, fin); err != nil {
				t.Fatal(err)
			}
			rd, err := runlog.LoadDir(ledger.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if len(rd.Steps) != steps || rd.Manifest.Status != runlog.StatusOK || rd.Manifest.Error != "" {
				t.Fatalf("ledger entry wrong: %d steps, status %s, error %q",
					len(rd.Steps), rd.Manifest.Status, rd.Manifest.Error)
			}

			if m.unclipped {
				var events bytes.Buffer
				serial, _, _ := m.run(t, seed, steps, func(cfg *PretrainConfig) {
					cfg.ClipNorm = math.Inf(1)
					cfg.Telemetry = obs.NewTrainRecorder(obs.NewJSONLWriter(&events))
				})
				if !slices.Equal(serial.Series, ref.Series) {
					t.Fatal("series under ClipNorm +Inf differs from the unclipped run")
				}
				var before runlog.RunData
				if _, err := runlog.ReadEvents(&events, 0, &before); err != nil {
					t.Fatal(err)
				}
				if got, want := gradNorms(rd.Steps), gradNorms(before.Steps); len(want) != steps || !slices.Equal(got, want) {
					t.Fatalf("grad_norm after the overlapped step %v, before the whole-list step %v", got, want)
				}
			}

			// Telemetry: every step and the summary carry exactly the
			// mode's phases.
			for i, ev := range rd.Steps {
				if keys := slices.Sorted(maps.Keys(ev.Phases)); !slices.Equal(keys, m.phases()) {
					t.Fatalf("step %d phases %v, want exactly %v", i+1, keys, m.phases())
				}
			}
			if keys := slices.Sorted(maps.Keys(got.PhaseSeconds)); !slices.Equal(keys, m.phases()) {
				t.Fatalf("Result.PhaseSeconds keys %v, want exactly %v", keys, m.phases())
			}

			// Memory timeline: one sample per step carrying the measured
			// ledger, the optimizer state counted exactly once.
			if len(rd.Mem) != steps {
				t.Fatalf("got %d mem samples, want %d", len(rd.Mem), steps)
			}
			last := rd.Mem[steps-1]
			if last.Step != steps {
				t.Fatalf("last sample step = %d", last.Step)
			}
			comp := last.Components
			if comp[memprof.CompWeights] <= 0 || comp[memprof.CompGrads] <= 0 {
				t.Fatalf("weights/grads missing: %v", comp)
			}
			if m.zero {
				var shardSum int64
				for s := 0; s < m.replicas; s++ {
					v, ok := comp[memprof.ShardComponent(s)]
					if !ok {
						t.Fatalf("missing %s in %v", memprof.ShardComponent(s), comp)
					}
					shardSum += v
				}
				if shardSum != opt.StateBytes() {
					t.Fatalf("shard components sum to %d, StateBytes = %d", shardSum, opt.StateBytes())
				}
				if _, ok := comp[memprof.CompOptimizerState]; ok {
					t.Fatal("sharded run also carries the aggregate optimizer_state component (double count)")
				}
			} else {
				if got := comp[memprof.CompOptimizerState]; got != opt.StateBytes() {
					t.Fatalf("optimizer_state = %d, StateBytes = %d", got, opt.StateBytes())
				}
			}
			_, hasReps := comp[memprof.CompDPReplicas]
			_, hasLeaves := comp[memprof.CompDPGradLeaves]
			if dp := m.replicas > 0; hasReps != dp || hasLeaves != dp {
				t.Fatalf("DP components present=%v/%v in a run with %d replicas: %v", hasReps, hasLeaves, m.replicas, comp)
			}
			if m.replicas > 0 && (comp[memprof.CompDPReplicas] <= 0 || comp[memprof.CompDPGradLeaves] <= 0) {
				t.Fatalf("DP components empty: %v", comp)
			}
		})
	}
}

func gradNorms(steps []obs.StepEvent) []float64 {
	var out []float64
	for _, ev := range steps {
		out = append(out, ev.GradNorm)
	}
	return out
}

// TestWatchdogHaltParity: a non-finite loss injected at step 3 raises one
// nan_loss alert within that step and stops the loop there — same step, same
// reason, same Result bookkeeping in every mode — and the finalized manifest
// says why the run is short. (HookLoss transforms only the loss the watchdog
// observes; see the note in watchdog_test.go.)
func TestWatchdogHaltParity(t *testing.T) {
	for _, m := range loopModes {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			ledger, err := runlog.Create(t.TempDir(), runlog.Manifest{ID: "halt", Command: "test"})
			if err != nil {
				t.Fatal(err)
			}
			wd := runlog.NewWatchdog(runlog.WatchdogConfig{Halt: true, Emit: ledger.Alert})
			wd.HookLoss = func(step int, loss float64) float64 {
				if step == 3 {
					return bad
				}
				return loss
			}
			res, _, _ := m.run(t, 11, 8, func(cfg *PretrainConfig) { cfg.Watchdog = wd })
			if !res.Halted || res.HaltStep != 3 || res.Steps != 3 {
				t.Fatalf("%s: halt bookkeeping wrong: %+v", m.name, res)
			}
			if res.HaltReason != runlog.AlertNaNLoss {
				t.Fatalf("%s: halt reason %q, want %q", m.name, res.HaltReason, runlog.AlertNaNLoss)
			}
			al := wd.Alerts()
			if len(al) != 1 || al[0].Step != 3 || al[0].Kind != runlog.AlertNaNLoss {
				t.Fatalf("%s: alerts: %+v", m.name, al)
			}
			// The final eval reflects the truncated run, not the configured steps.
			if n := len(res.Series); n == 0 || res.Series[n-1].Step != 3 {
				t.Fatalf("%s: final metric not at halt step: %+v", m.name, res.Series)
			}
			status, fin := res.Final()
			if err := ledger.Finalize(status, fin); err != nil {
				t.Fatal(err)
			}
			rd, err := runlog.LoadDir(ledger.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if rd.Manifest.Status != runlog.StatusHalted || rd.Manifest.Steps != 3 ||
				rd.Manifest.Error != "watchdog halt at step 3: "+runlog.AlertNaNLoss {
				t.Fatalf("%s: halted manifest: status %s, steps %d, error %q",
					m.name, rd.Manifest.Status, rd.Manifest.Steps, rd.Manifest.Error)
			}
			// The alert itself reached the stream: JSON cannot carry the value
			// that raised it, so it travels as null beside its exact text.
			if len(rd.Alerts) != 1 || rd.Alerts[0].Step != 3 ||
				(rd.Alerts[0].Loss != bad && !(math.IsNaN(rd.Alerts[0].Loss) && math.IsNaN(bad))) {
				t.Fatalf("%s: recorded alerts %+v, want the one step-3 alert with loss %v", m.name, rd.Alerts, bad)
			}
		}
	}
}
