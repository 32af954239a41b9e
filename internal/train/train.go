// Package train provides the training loops shared by every experiment:
// causal-LM pre-training with periodic validation (the protocol behind
// Tables 2/3/8/9 and Figs. 2/3/5/6/7) and classification-as-LM fine-tuning
// (Tables 5/6). Loops are deterministic given their seeds and record full
// metric series so the figure runners can emit curves.
//
// There is one pre-training loop (pretrain); Pretrain and DPPretrain are its
// entry points and differ only in the gradient stage they hand it, which
// decides the float32 summation order of the batch gradient, nothing else.
package train

import (
	"fmt"
	"math"
	"time"

	"apollo/internal/ckpt"
	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/obs"
	"apollo/internal/obs/memprof"
	"apollo/internal/obs/runlog"
	"apollo/internal/optim"
)

// Metric is one evaluation point during training.
type Metric struct {
	Step      int
	TrainLoss float64
	ValLoss   float64
	ValPPL    float64
	LR        float64
}

// Result summarizes one training run.
type Result struct {
	Optimizer   string
	Series      []Metric
	FinalValPPL float64
	StateBytes  int64
	WallSeconds float64 // loop + final validation (not DP replica construction)
	Steps       int
	// ReplicaStateBytes is the per-replica optimizer-state footprint of a
	// data-parallel run: under ZeRO sharding each entry is one shard's
	// resident state (~StateBytes/N); in plain DP every replica holds the
	// full state, so each entry equals StateBytes. Nil for fused runs.
	ReplicaStateBytes []int64
	// AllReduceBytes counts the gradient bytes actually merged by the
	// balanced-tree all-reduce over the whole run ((B−1)·P·4 per step).
	AllReduceBytes int64
	// BroadcastBytes counts the weight bytes copied between replicas over
	// the whole run: master→replica sync copies in plain DP, the per-shard
	// binomial-tree broadcast under ZeRO ((N−1)·P·4 per step).
	BroadcastBytes int64
	// PhaseSeconds breaks the run's per-step wall time down by phase
	// (obs.Phase names: data, forward, backward, allreduce, step, broadcast,
	// checkpoint, eval). Nil unless PretrainConfig.Telemetry was set. A
	// fused run has no allreduce/broadcast entries and its phases partition
	// each step's wall time exactly; a data-parallel run's forward/backward
	// are summed across concurrently running replicas and can exceed it.
	PhaseSeconds map[string]float64
	// StepWallSeconds is the wall time spent inside training steps (the sum
	// RecordStep saw), excluding the final out-of-loop validation. Zero
	// unless PretrainConfig.Telemetry was set.
	StepWallSeconds float64
	// Halted is set when the watchdog aborted the run (halt-on-divergence):
	// HaltStep is the last completed step and HaltReason the alert kind that
	// tripped. Steps then reports HaltStep, not the configured target.
	Halted     bool
	HaltStep   int
	HaltReason string
}

// PretrainConfig controls a pre-training run.
type PretrainConfig struct {
	Batch       int
	Seq         int
	Steps       int
	EvalEvery   int // 0 = only final eval
	EvalBatches int
	Schedule    optim.Schedule
	// ClipNorm applies global gradient clipping when > 0 (the AdamW/GaLore
	// recipe; APOLLO relies on its norm-growth limiter instead).
	ClipNorm float64
	// Accum splits each global batch into Accum gradient-accumulation
	// micro-batches in the fused gradient stage, decoupling the global
	// batch size from resident activation memory: only Batch/Accum
	// sequences of activations are live at once while the optimizer still
	// sees the full-batch gradient (cross-entropy is normalized by the
	// global target count, so Accum=k matches Accum=1 up to float32
	// summation order — see TestAccumParity). Values that do not divide
	// Batch are reduced to the largest divisor. The data-parallel stage
	// (DPPretrain) ignores Accum: its per-sequence gradient leaves already
	// keep one sequence of activations per replica.
	Accum int
	// CkptEvery > 0 saves a checkpoint to CkptPath after every CkptEvery-th
	// step (internal/ckpt format, written atomically — a crash mid-save
	// never destroys the previous snapshot). A failed save panics, since
	// silently continuing without durability is worse than stopping.
	CkptEvery int
	CkptPath  string
	// StartStep resumes the loop at this step index. The caller must first
	// restore weights, optimizer state and the corpus cursor from the
	// matching checkpoint (ckpt.Restore); then resuming at step K and
	// running to Steps is bit-identical to an uninterrupted run
	// (TestCheckpointResumeParity).
	StartStep int
	// Telemetry, when non-nil, records one obs.StepEvent per step — loss,
	// gradient norm, and a wall-time breakdown by phase — and fills
	// Result.PhaseSeconds. Timing-only: a telemetry run is bit-identical to
	// an untelemetered one (TestObserverParity); disabled it costs one
	// branch per phase boundary.
	Telemetry *obs.TrainRecorder
	// Watchdog, when non-nil, observes every step's loss, gradient norm and
	// wall time for training-health anomalies — NaN/Inf, loss spikes above a
	// multiple of the trailing-window median, stalled steps — raising
	// structured alerts (into the run ledger and obs counters) and, when its
	// config says Halt, aborting the loop after the offending step.
	// Observational only: a watched run is bit-identical to an unwatched one
	// (TestObserverParity runs with ledger+watchdog enabled).
	Watchdog *runlog.Watchdog
	// MemProf, when non-nil, receives the loop's live memory ledger —
	// weights, grads, measured optimizer state (split per ZeRO shard under
	// DPPretrain) — and is sampled once per step after the step's telemetry is
	// recorded, so the sampler never sits on the timed path. Observational
	// only: a profiled run is bit-identical to an unprofiled one
	// (TestObserverParity); disabled it costs one nil check per step.
	MemProf *memprof.Profiler
	// Quiet suppresses progress output.
	Logf func(format string, args ...any)
}

func (c PretrainConfig) withDefaults() PretrainConfig {
	if c.EvalBatches == 0 {
		c.EvalBatches = 4
	}
	if c.Accum < 1 {
		c.Accum = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Pretrain runs the causal-LM loop: sample batch → loss/backprop → clip →
// schedule → optimizer step, evaluating on the corpus's fixed validation
// batches. The batch gradient comes from the fused stage (lossAccum).
func Pretrain(model *nn.Model, opt optim.Optimizer, corpus *data.Corpus, cfg PretrainConfig) Result {
	return pretrain(model, opt, corpus, cfg.withDefaults(), nil)
}

// pretrain is the one pre-training loop: every stage of a step lives here
// exactly once, and a run mode chooses only its gradient stage. dp == nil is
// the fused stage (lossAccum over cfg.Accum micro-batches); otherwise
// dp.gradient fills the master grads from its replicas and dp.publish
// returns the stepped weights to them.
func pretrain(model *nn.Model, opt optim.Optimizer, corpus *data.Corpus, cfg PretrainConfig, dp *dataParallel) Result {
	start := time.Now()
	var series []Metric
	params := model.Params()
	accum := min(cfg.Accum, cfg.Batch)
	for cfg.Batch%accum != 0 {
		accum--
	}
	tag := opt.Name()
	if dp != nil {
		tag = fmt.Sprintf("%s x%d", tag, len(dp.reps))
	}

	rec := cfg.Telemetry
	wd := cfg.Watchdog
	instrumentMemory(cfg.MemProf, params.List(), opt, dp)
	timed := rec != nil || wd != nil
	// Whether the fused stage may step each group backward releases while
	// backward goes on, bit for bit one whole-list Step: not under clipping,
	// which needs the global norm first, nor for an optimizer whose draws
	// follow the list order; and never on a run's first step (below), whose
	// first touches draw in list order.
	overlap := dp == nil && cfg.ClipNorm <= 0 && optim.OrderFree(opt)
	endStep := cfg.Steps
	for step := cfg.StartStep; step < cfg.Steps; step++ {
		var stepStart time.Time
		if timed {
			stepStart = time.Now()
		}
		pc := phaseClock{on: rec != nil, mark: stepStart}
		if cfg.Schedule != nil {
			opt.SetLR(cfg.Schedule.At(step))
		}
		batch := corpus.NextTrainBatch(cfg.Batch, cfg.Seq)
		pc.lap(obs.PhaseData)
		var loss float64
		stepped := false
		switch {
		case dp != nil:
			loss = dp.gradient(batch, &pc)
		case overlap && step > cfg.StartStep:
			params.ZeroGrad()
			stepped = stepDuring(opt, len(params.List()), func(release func([]*nn.Param)) {
				loss = lossAccum(model, batch, accum, &pc, release)
			})
		default:
			params.ZeroGrad()
			loss = lossAccum(model, batch, accum, &pc, nil)
		}
		var gradNorm float64
		if timed {
			gradNorm = params.GradNorm()
		}
		if cfg.ClipNorm > 0 {
			params.ClipGradNorm(cfg.ClipNorm)
		}
		if !stepped {
			opt.Step(params.List())
		}
		pc.lap(obs.PhaseStep)
		if dp != nil {
			dp.publish(&pc)
		}
		// After the step (and the ZeRO broadcast): master weights are current
		// and a Sharded optimizer gathers its state into the canonical
		// layout, so the snapshot resumes under any world size.
		maybeCheckpoint(cfg, step, params.List(), opt, corpus)
		pc.lap(obs.PhaseCheckpoint)

		if cfg.EvalEvery > 0 && (step+1)%cfg.EvalEvery == 0 {
			val := Validate(model, corpus, cfg.EvalBatches, cfg.Batch, cfg.Seq)
			series = append(series, Metric{
				Step: step + 1, TrainLoss: loss, ValLoss: val,
				ValPPL: math.Exp(val), LR: opt.LR(),
			})
			cfg.Logf("[%s] step %d/%d train %.4f val ppl %.2f", tag, step+1, cfg.Steps, loss, math.Exp(val))
		}
		pc.lap(obs.PhaseEval)
		var wall time.Duration
		if timed {
			wall = time.Since(stepStart)
		}
		if rec != nil {
			rec.RecordStep(step+1, loss, gradNorm, opt.LR(), wall, pc.d)
		}
		cfg.MemProf.ObserveStep(step + 1)
		if wd.ObserveStep(step+1, loss, gradNorm, wall.Seconds()) {
			endStep = step + 1
			cfg.Logf("[%s] step %d: watchdog halt", tag, endStep)
			break
		}
	}
	final := Validate(model, corpus, cfg.EvalBatches, cfg.Batch, cfg.Seq)
	series = append(series, Metric{
		Step: endStep, ValLoss: final, ValPPL: math.Exp(final), LR: opt.LR(),
	})
	res := Result{
		Optimizer:   opt.Name(),
		Series:      series,
		FinalValPPL: math.Exp(final),
		StateBytes:  opt.StateBytes(),
		WallSeconds: time.Since(start).Seconds(),
		Steps:       endStep,
	}
	if dp != nil {
		res.ReplicaStateBytes = dp.replicaStateBytes(opt)
		res.AllReduceBytes, res.BroadcastBytes = dp.allReduceBytes, dp.broadcastBytes
	}
	_, res.StepWallSeconds, res.PhaseSeconds = rec.Summary()
	if wd.Halted() {
		res.Halted, res.HaltStep = true, endStep
		if alerts := wd.Alerts(); len(alerts) > 0 {
			res.HaltReason = alerts[len(alerts)-1].Kind
		}
	}
	return res
}

// phaseClock splits a step's wall time across obs.Phase slots: the loop
// seeds mark with the step's start stamp, then each lap charges the time
// since the previous boundary to one phase. The zero clock (on=false) makes
// every call a single branch — the obs cost contract for untelemetered runs.
type phaseClock struct {
	on   bool
	mark time.Time
	d    [obs.NumPhases]time.Duration
}

func (pc *phaseClock) lap(p obs.Phase) {
	if !pc.on {
		return
	}
	now := time.Now()
	pc.d[p] += now.Sub(pc.mark)
	pc.mark = now
}

// skip resets the clock without charging any phase — used by the
// data-parallel stage around its concurrent compute section, whose wall time
// is represented by the per-replica forward/backward sums instead.
func (pc *phaseClock) skip() {
	if pc.on {
		pc.mark = time.Now()
	}
}

// merge adds another clock's phase totals — a replica's, after the join.
func (pc *phaseClock) merge(o *phaseClock) {
	for p, d := range o.d {
		pc.d[p] += d
	}
}

// lossShardPhased is forward, sharded cross-entropy (gradients normalized by
// the global target count, the shard's unnormalized loss sum returned) and
// backward, with phase laps at the forward/backward boundary — the one
// forward/backward every gradient stage is built from (a fused micro-batch
// and a data-parallel leaf differ only in the rows they pass). Cross-entropy
// is charged to backward: it produces the gradient seed. release, when not
// nil, receives each parameter group as its gradient becomes final
// (nn.Model.BackwardRelease).
func lossShardPhased(model *nn.Model, tokens, targets []int, b, t, counted int, pc *phaseClock, release func([]*nn.Param)) float64 {
	logits := model.Forward(tokens, b, t)
	pc.lap(obs.PhaseForward)
	sum, dlogits := nn.CrossEntropyShard(logits, targets, -1, counted)
	model.BackwardRelease(dlogits, release)
	pc.lap(obs.PhaseBackward)
	return sum
}

// stepDuring is the fused stage's overlapped step: backward runs on the
// calling goroutine and hands each parameter group it releases to one
// stepping goroutine, which calls opt.Step on the groups in release order
// while backward goes on with the next block. It returns once every released
// group is stepped, re-raising here a panic from Step; stepped reports
// whether backward released anything (a batch with no target runs none).
// params bounds the number of groups: each holds at least one parameter.
func stepDuring(opt optim.Optimizer, params int, backward func(release func([]*nn.Param))) (stepped bool) {
	queue := make(chan []*nn.Param, params) // room for every group of a pass: releasing never blocks
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		for g := range queue {
			opt.Step(g)
		}
	}()
	// Deferred so that a panicking backward, too, leaves no Step running on
	// the model it unwinds from.
	defer func() {
		close(queue)
		if r := <-done; r != nil {
			panic(r)
		}
	}()
	backward(func(g []*nn.Param) {
		stepped = true
		queue <- g
	})
	return stepped
}

// maybeCheckpoint writes a periodic snapshot after step completed (the
// loop calls it right after the optimizer step, so the saved state is the
// post-step state the next step builds on). Save failures panic: a training
// run that silently loses its durability guarantee is strictly worse than
// one that stops.
func maybeCheckpoint(cfg PretrainConfig, step int, params []*nn.Param, opt optim.Optimizer, corpus *data.Corpus) {
	if cfg.CkptEvery <= 0 || cfg.CkptPath == "" || (step+1)%cfg.CkptEvery != 0 {
		return
	}
	st, err := ckpt.Capture(step+1, params, opt, corpus)
	if err == nil {
		err = ckpt.SaveFile(cfg.CkptPath, st)
	}
	if err != nil {
		panic(fmt.Errorf("train: checkpoint at step %d: %w", step+1, err))
	}
	cfg.Logf("[%s] step %d: checkpoint → %s", opt.Name(), step+1, cfg.CkptPath)
}

// lossAccum is the fused gradient stage: forward/backward over the batch in
// accum micro-batches, accumulating gradients and normalizing by the batch's
// global non-ignored target count so the accumulated gradient equals the
// full-batch gradient (same math; float32 summation order differs). Only one
// micro-batch of activations is resident at a time. accum == 1 is exactly
// model.Loss: nn.CrossEntropy is CountTargets + CrossEntropyShard + a divide.
// Only the last micro-batch's backward releases groups to release (nil:
// none): until then every gradient is still accumulating.
func lossAccum(model *nn.Model, batch data.Batch, accum int, pc *phaseClock, release func([]*nn.Param)) float64 {
	counted := nn.CountTargets(batch.Targets, -1)
	if counted == 0 {
		// The fused CrossEntropy convention: no targets → zero loss and
		// zero gradient.
		return 0
	}
	micro := batch.B / accum
	span := micro * batch.T
	var sum float64
	for a := 0; a < accum; a++ {
		lo, hi := a*span, (a+1)*span
		var rel func([]*nn.Param)
		if a == accum-1 {
			rel = release
		}
		sum += lossShardPhased(model, batch.Tokens[lo:hi], batch.Targets[lo:hi], micro, batch.T, counted, pc, rel)
	}
	return sum / float64(counted)
}

// Validate returns the mean validation loss over the corpus's fixed
// evaluation batches. batches <= 0 evaluates nothing and returns 0 by
// convention (perplexity 1) — never the NaN a zero divisor would produce,
// which math.Exp would otherwise propagate into every downstream perplexity.
func Validate(model *nn.Model, corpus *data.Corpus, batches, b, t int) float64 {
	if batches <= 0 {
		return 0
	}
	var total float64
	for i := 0; i < batches; i++ {
		vb := corpus.ValBatch(i, b, t)
		total += model.EvalLoss(vb.Tokens, vb.Targets, vb.B, vb.T)
	}
	return total / float64(batches)
}

// EncodeFT builds the LM sequence for a fine-tuning example:
// [ctx..., sep] predicting the label token at the separator position, every
// other position masked out.
func EncodeFT(task *data.FTTask, ex data.FTExample) (tokens, targets []int) {
	seqLen := len(ex.Context) + 1
	tokens = make([]int, seqLen)
	targets = make([]int, seqLen)
	copy(tokens, ex.Context)
	tokens[seqLen-1] = task.SepToken
	for i := range targets {
		targets[i] = -1
	}
	targets[seqLen-1] = task.LabelBase + ex.Label
	return tokens, targets
}

// FineTuneConfig controls a fine-tuning run.
type FineTuneConfig struct {
	Epochs   int
	Batch    int
	Schedule optim.Schedule
	Seed     uint64
}

// FineTune trains model on the task's training split and returns held-out
// accuracy (the Table 5/6 protocol).
func FineTune(model *nn.Model, opt optim.Optimizer, task *data.FTTask, cfg FineTuneConfig) float64 {
	if cfg.Epochs == 0 {
		cfg.Epochs = 3
	}
	if cfg.Batch == 0 {
		cfg.Batch = 8
	}
	seqLen := task.Cfg.CtxLen + 1
	step := 0
	order := make([]int, len(task.TrainSet))
	for i := range order {
		order[i] = i
	}
	rngState := cfg.Seed
	next := func(n int) int { // tiny deterministic shuffle helper
		rngState = rngState*6364136223846793005 + 1442695040888963407
		return int((rngState >> 33) % uint64(n))
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i := len(order) - 1; i > 0; i-- {
			j := next(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, span := range batchSpans(len(order), cfg.Batch) {
			bsz := span[1] - span[0]
			tokens := make([]int, 0, bsz*seqLen)
			targets := make([]int, 0, bsz*seqLen)
			for _, idx := range order[span[0]:span[1]] {
				tk, tg := EncodeFT(task, task.TrainSet[idx])
				tokens = append(tokens, tk...)
				targets = append(targets, tg...)
			}
			if cfg.Schedule != nil {
				opt.SetLR(cfg.Schedule.At(step))
			}
			model.Params().ZeroGrad()
			model.Loss(tokens, targets, bsz, seqLen)
			opt.Step(model.Params().List())
			step++
		}
	}
	return FTAccuracy(model, task)
}

// batchSpans cuts [0, n) into batch-sized [lo, hi) spans, the last possibly
// short. Every index lands in exactly one span, so an epoch visits every
// example even when n is not a multiple of batch — the trailing examples
// train as a short batch instead of being silently dropped.
func batchSpans(n, batch int) [][2]int {
	if batch < 1 {
		batch = 1
	}
	var spans [][2]int
	for at := 0; at < n; at += batch {
		hi := at + batch
		if hi > n {
			hi = n
		}
		spans = append(spans, [2]int{at, hi})
	}
	return spans
}

// FTAccuracy evaluates test accuracy: argmax over the task's label tokens at
// the separator position.
func FTAccuracy(model *nn.Model, task *data.FTTask) float64 {
	correct := 0
	seqLen := task.Cfg.CtxLen + 1
	for _, ex := range task.TestSet {
		tk, _ := EncodeFT(task, ex)
		logits := model.Forward(tk, 1, seqLen)
		row := logits.Row(seqLen - 1)
		best, bi := math.Inf(-1), 0
		for c := 0; c < task.Cfg.Classes; c++ {
			if v := float64(row[task.LabelBase+c]); v > best {
				best, bi = v, c
			}
		}
		if bi == ex.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(task.TestSet))
}

// Final renders the result as a run-ledger outcome: the manifest status and
// summary. A watchdog-halted run says in Error why it is short.
func (r Result) Final() (status string, fin runlog.Final) {
	fin = runlog.Final{
		Steps: r.Steps, FinalPPL: r.FinalValPPL,
		StepWallSeconds: r.StepWallSeconds, PhaseSeconds: r.PhaseSeconds,
	}
	if n := len(r.Series); n > 0 {
		fin.FinalLoss = r.Series[n-1].ValLoss
	}
	if r.Halted {
		fin.Error = fmt.Sprintf("watchdog halt at step %d: %s", r.HaltStep, r.HaltReason)
		return runlog.StatusHalted, fin
	}
	return runlog.StatusOK, fin
}

// String renders a result row.
func (r Result) String() string {
	return fmt.Sprintf("%-16s ppl %.2f  states %s  %.1fs",
		r.Optimizer, r.FinalValPPL, obs.FormatBytes(r.StateBytes), r.WallSeconds)
}
