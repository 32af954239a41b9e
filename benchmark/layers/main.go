// Command layers gives the per-layer metrics of one workload. For the fused
// training workloads it drives the training step itself from each layer's
// public functions with a span around every call; for pretrain_dpzero it
// runs the data-parallel loop under the program's own phase recorder; then
// it probes each layer at the shapes the workload issues. It imports
// apollo/internal/*, so it is the one benchmark binary an internal signature
// change can break. It prints one spec.Episode as the last line of standard
// output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"apollo/benchmark/spec"
	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/obs"
	"apollo/internal/train"
)

func main() {
	var (
		workload    = flag.String("workload", "", "workload name")
		seed        = flag.Uint64("seed", 1, "seed, as given to the end-to-end run")
		tracePath   = flag.String("trace", "", "write the training-step spans to this file")
		tmp         = flag.String("tmp", "", "scratch directory for checkpoint probes")
		wantLoss    = flag.String("want-loss", "", "final loss of the untraced end-to-end episode; the traced loop must reproduce it")
		untracedP50 = flag.Float64("untraced-p50", 0, "median step milliseconds of the untraced end-to-end episode")
		tiny        = flag.Bool("tiny", false, "smoke-test sizes")
	)
	flag.Parse()
	if *tiny {
		probeFor = time.Millisecond
	}

	ep := spec.Episode{Attempted: 1, Layer: map[string]float64{}}
	var err error
	if *workload == spec.Serve {
		err = serveLayers(&ep, spec.Serving(0, *tiny), *seed, *tmp)
	} else if w, ok := spec.TrainByName(*workload, *tiny); ok {
		err = trainLayers(&ep, w, *seed, *tmp, *tracePath, *wantLoss, *untracedP50)
	} else {
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	if len(ep.Problems) > 0 {
		ep.Failed = 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(ep); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

// trainLayers fills the per-layer metrics of a training workload.
func trainLayers(ep *spec.Episode, w spec.Train, seed uint64, tmp, tracePath, wantLoss string, untracedP50 float64) error {
	if w.Replicas == 0 {
		if err := handDriven(ep, w, seed, tracePath, wantLoss, untracedP50); err != nil {
			return err
		}
	}
	if err := underTelemetry(ep, w, seed, wantLoss); err != nil {
		return err
	}

	// Probes, at the shapes this workload issues: the fused loop forwards
	// the whole batch at once, the data-parallel loop one sequence.
	rows, batch := w.Batch*w.Seq, w.Batch
	if w.Replicas > 0 {
		rows, batch = w.Seq, 1
	}
	probeKernels(ep.Layer, rows, w.Model.Dim, w.Model.Hidden)
	model, _, corpus, err := w.Build(seed)
	if err != nil {
		return err
	}
	probeModel(ep.Layer, model, corpus, batch, w.Seq, w.Replicas > 0)
	probeOptimizers(ep.Layer, model, w, seed)
	probeProjection(ep.Layer, w)
	if w.Replicas > 0 {
		probeShardStep(ep.Layer, model, w, seed)
	}
	probeObs(ep.Layer)
	return probeCheckpoint(ep.Layer, model, w.NewOptimizer(seed), corpus, tmp)
}

// stamper is the batch hook the end-to-end binary also installs, the step
// clock, plus allocation counters at the two ticks that bound the timed
// window.
type stamper struct {
	*spec.StepClock
	first, last int // tick indexes bounding the timed window
	mem         [2]runtime.MemStats
}

func newStamper(w spec.Train) *stamper {
	return &stamper{StepClock: spec.NewStepClock(w.RefPasses), first: w.Warmup, last: w.Warmup + w.Steps}
}

func (s *stamper) hook(*data.Batch) {
	switch s.Ticks() {
	case s.first:
		runtime.ReadMemStats(&s.mem[0])
	case s.last:
		runtime.ReadMemStats(&s.mem[1])
	}
	s.Tick()
}

// window fills in the tokens and seconds of the timed window, as the
// end-to-end binary computes them.
func (s *stamper) window(ep *spec.Episode, w spec.Train) {
	ep.Tokens, ep.WindowS, ep.Slowdown = float64(w.Steps*w.Batch*w.Seq), 0, s.Slowdowns()
	for _, ms := range s.Steps(s.first) {
		ep.WindowS += ms / 1e3
	}
}

// handDriven runs the fused training step from public calls, one span per
// call. It must end on the untraced episode's final loss bit for bit, or the
// spans describe some other computation.
func handDriven(ep *spec.Episode, w spec.Train, seed uint64, tracePath, wantLoss string, untracedP50 float64) error {
	model, opt, corpus, err := w.Build(seed)
	if err != nil {
		return err
	}
	cfg := w.Config()
	st := newStamper(w)
	corpus.HookTrainBatch = st.hook
	params := model.Params()
	tr := newTracer(8 * cfg.Steps)
	for step := 0; step < cfg.Steps; step++ {
		root := tr.begin("train.step", step, -1)
		s := tr.begin("data.next_batch", step, root)
		batch := corpus.NextTrainBatch(cfg.Batch, cfg.Seq)
		tr.pause(st.TickSeconds(1))
		tr.end(s)
		s = tr.begin("nn.zero_grad", step, root)
		params.ZeroGrad()
		tr.end(s)
		s = tr.begin("nn.forward", step, root)
		logits := model.Forward(batch.Tokens, batch.B, batch.T)
		tr.end(s)
		s = tr.begin("nn.cross_entropy", step, root)
		_, dlogits := nn.CrossEntropy(logits, batch.Targets, -1)
		tr.end(s)
		s = tr.begin("nn.backward", step, root)
		model.Backward(dlogits)
		tr.end(s)
		s = tr.begin("optim.step", step, root)
		opt.Step(params.List())
		tr.end(s)
		tr.end(root)
	}
	final := spec.ExactFloat(train.Validate(model, corpus, cfg.EvalBatches, cfg.Batch, cfg.Seq))
	ep.FinalLoss = final
	if wantLoss != "" && final != wantLoss {
		ep.Problems = append(ep.Problems, fmt.Sprintf(
			"hand-driven loop ended on loss %s, the end-to-end episode on %s: the spans attribute a different computation", final, wantLoss))
	}
	st.window(ep, w)

	// Span medians in nominal time, by the run's median reference sample;
	// the trace file keeps the wall clock.
	host := spec.Median(st.Slowdowns())
	med := func(name string) float64 { return spec.Median(tr.durations(name, w.Warmup)) / host }
	forward, backward := med("nn.forward"), med("nn.cross_entropy")+med("nn.backward")
	optimizer, next, zero := med("optim.step"), med("data.next_batch"), med("nn.zero_grad")
	ep.Layer["nn.forward_ms"] = forward
	ep.Layer["nn.backward_ms"] = backward
	ep.Layer["data.next_batch_ms"] = next
	ep.Layer["train.optimizer_ms"] = optimizer
	ep.Layer["train.optimizer_share"] = optimizer / med("train.step")
	ep.Layer["train.step_self_ms"] = spec.Median(tr.selfMS("train.step", w.Warmup)) / host
	if untracedP50 > 0 {
		ep.Layer["train.loop_overhead_ms"] = untracedP50 - (forward + backward + optimizer + next + zero)
	}
	if tracePath != "" {
		return spec.WriteJSONL(tracePath, tr.spans)
	}
	return nil
}

// underTelemetry runs the program's own loop with its public phase recorder
// on and reads the phase split, the allocation counts of the timed window
// and the collective byte counts from it.
func underTelemetry(ep *spec.Episode, w spec.Train, seed uint64, wantLoss string) error {
	model, opt, corpus, err := w.Build(seed)
	if err != nil {
		return err
	}
	cfg := w.Config()
	cfg.Telemetry = obs.NewTrainRecorder(nil)
	st := newStamper(w)
	corpus.HookTrainBatch = st.hook
	var res train.Result
	if w.Replicas > 0 {
		res = train.DPPretrain(model, opt, corpus, train.DPConfig{PretrainConfig: cfg, Replicas: w.Replicas})
	} else {
		res = train.Pretrain(model, opt, corpus, cfg)
	}
	if final := spec.ExactFloat(res.Series[len(res.Series)-1].ValLoss); wantLoss != "" && final != wantLoss {
		ep.Problems = append(ep.Problems, fmt.Sprintf("telemetry run ended on loss %s, the end-to-end episode on %s", final, wantLoss))
	}

	// The recorder's clock ran across the batch hook: take the ticks back
	// out of the data phase and the step wall. Phase times are nominal, like
	// the hand-driven spans.
	ticks := st.TickSeconds(st.Ticks())
	res.PhaseSeconds["data"] -= ticks
	res.StepWallSeconds -= ticks
	steps, host := float64(res.Steps), spec.Median(st.Slowdowns())
	var sum float64
	for _, name := range obs.PhaseNames() {
		ep.Layer["train.phase_ms."+name] = res.PhaseSeconds[name] / steps * 1e3 / host
		sum += res.PhaseSeconds[name]
	}
	ep.Layer["train.phase_sum_over_wall"] = sum / res.StepWallSeconds
	timed := float64(w.Steps)
	ep.Layer["train.allocs_per_step"] = float64(st.mem[1].Mallocs-st.mem[0].Mallocs) / timed
	ep.Layer["train.alloc_mb_per_step"] = float64(st.mem[1].TotalAlloc-st.mem[0].TotalAlloc) / timed / (1 << 20)
	ep.Layer["train.gc_per_100_steps"] = float64(st.mem[1].NumGC-st.mem[0].NumGC) / timed * 100
	ep.Layer["train.allreduce_bytes_per_step"] = float64(res.AllReduceBytes) / steps
	ep.Layer["train.broadcast_bytes_per_step"] = float64(res.BroadcastBytes) / steps
	if w.Replicas > 0 {
		// No hand-driven loop here: the traced run is this one, and the
		// optimizer's share comes from the recorder's step phase.
		st.window(ep, w)
		ep.FinalLoss = spec.ExactFloat(res.Series[len(res.Series)-1].ValLoss)
		ep.Layer["train.optimizer_ms"] = ep.Layer["train.phase_ms.step"]
		ep.Layer["train.optimizer_share"] = res.PhaseSeconds["step"] / res.StepWallSeconds
		var most, total float64
		for _, b := range res.ReplicaStateBytes {
			most = max(most, float64(b))
			total += float64(b)
		}
		ep.Layer["zero.state_imbalance"] = most / (total / float64(len(res.ReplicaStateBytes)))
	}
	return nil
}
