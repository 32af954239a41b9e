// Command apollo-pretrain trains a proxy LLaMA-style model on the synthetic
// corpus with any optimizer in the zoo and reports validation perplexity.
//
// Usage:
//
//	apollo-pretrain -size 130M -optimizer APOLLO-Mini -steps 300
//	apollo-pretrain -size 60M -optimizer GaLore -rank 8 -lr 0.003
//	apollo-pretrain -size 60M -replicas 4 -workers 8   # data-parallel
//	apollo-pretrain -size 60M -replicas 4 -zero        # + sharded optimizer states
//	apollo-pretrain -size 60M -accum 4                 # gradient accumulation
//	apollo-pretrain -size 60M -save run.ckpt -ckpt-every 100   # periodic snapshots
//	apollo-pretrain -size 60M -resume run.ckpt -save run.ckpt  # continue a run
//
// -replicas N shards each batch across N model replicas with an exact
// all-reduce: the loss curve is bit-identical for every N (see
// internal/train/dp.go for the determinism contract). -zero additionally
// partitions the optimizer state across the replicas ZeRO-style — still
// bit-identical, but each replica holds only ~1/N of the state (see
// internal/zero). -accum k splits each fused batch into k
// gradient-accumulation micro-batches (and is rejected with -replicas,
// which already computes the gradient one sequence at a time). All of these
// run the same training loop — they only pick how the batch gradient is
// summed. -workers sizes the shared tensor worker pool; it never changes
// results, only speed.
//
// -save writes bit-exact checkpoints (internal/ckpt) from the training loop:
// every -ckpt-every steps when set, and once after the last step (a run the
// watchdog halts keeps its last periodic one). -resume continues
// from a checkpoint — the flags must rebuild the same model and optimizer
// method, but the ZeRO world may differ: checkpoints store the canonical
// unsharded state layout, so a `-replicas 3 -zero` snapshot resumes under
// `-replicas 4 -zero`, plain DP, or fused, reproducing the
// uninterrupted run float-for-float (see internal/train's
// TestCheckpointResumeParity / TestElasticReshardParity).
//
// Every run also leaves a ledger entry under -runs DIR (default "runs";
// empty disables): runs/<id>/manifest.json records the full configuration,
// host, and outcome; events.jsonl is the run's one event stream — a "step"
// line per training step (loss, gradient norm, LR, wall and phase timings),
// a "mem" line per memory sample, an "alert" line per training-health
// alert. The manifest is finalized even when the run
// fails, panics, or is interrupted, so the ledger never lies about what
// happened. A training-health watchdog rides along: NaN/Inf loss or
// gradient norm, loss spikes above -spike-factor × the trailing-window
// median, and stalled steps all raise alerts; -halt-on-divergence
// additionally aborts the run at the offending step (exit code 3). The
// ledger and watchdog only observe values the loop already computes —
// results are bit-identical with or without them. Inspect entries with
// the apollo-runs command (list/show/diff/gc/watch).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"apollo/internal/bench"
	"apollo/internal/ckpt"
	"apollo/internal/memmodel"
	"apollo/internal/obs"
	"apollo/internal/obs/memprof"
	"apollo/internal/obs/runlog"
	"apollo/internal/optim"
	rt "apollo/internal/runtime"
	"apollo/internal/train"
	"apollo/internal/zero"
)

func main() {
	var (
		size     = flag.String("size", "60M", "proxy size: 60M 130M 350M 1B 7B")
		method   = flag.String("optimizer", "APOLLO", "method name (README, \"Method catalogue\")")
		steps    = flag.Int("steps", 0, "training steps (0 = proxy default)")
		batch    = flag.Int("batch", 0, "batch size (0 = proxy default)")
		seq      = flag.Int("seq", 0, "sequence length (0 = proxy default)")
		rank     = flag.Int("rank", 0, "low-rank dimension (0 = dim/4)")
		lr       = flag.Float64("lr", 0, "peak learning rate (0 = proxy default)")
		seed     = flag.Uint64("seed", 1, "run seed")
		replicas = flag.Int("replicas", 0, "data-parallel replicas (0 = fused single-pass gradient)")
		zeroOpt  = flag.Bool("zero", false, "shard optimizer states across the replicas (requires -replicas)")
		accum    = flag.Int("accum", 0, "gradient-accumulation micro-batches per step (fused gradient only; not with -replicas)")
		workers  = flag.Int("workers", 0, "tensor worker pool size (0 = GOMAXPROCS)")
		save     = flag.String("save", "", "checkpoint file to write (periodically with -ckpt-every, always at the end)")
		ckptEach = flag.Int("ckpt-every", 0, "steps between periodic checkpoint saves (0 = only final)")
		resume   = flag.String("resume", "", "checkpoint file to resume from")
		runsRoot = flag.String("runs", "runs", "run-ledger root directory (empty disables the ledger)")
		runID    = flag.String("run-id", "", "ledger entry name (default: minted from timestamp+size+optimizer)")
		haltDiv  = flag.Bool("halt-on-divergence", false, "abort the run when the watchdog sees NaN/Inf or a loss spike (exit 3)")
		spikeF   = flag.Float64("spike-factor", 0, "watchdog: alert when loss exceeds this × trailing median (0 = default 3)")
		wdWindow = flag.Int("watchdog-window", 0, "watchdog: trailing median window in steps (0 = default 32)")
		memEvery = flag.Int("mem-every", 1, "memory-timeline sampling stride in steps (0 disables; needs a run ledger)")
		memHW    = flag.Int64("mem-highwater", 0, "heap high-water mark in bytes: crossing it captures a heap profile into the run dir (0 disables)")
	)
	flag.Parse()

	// The ledger entry for this run. Created after flag validation; every
	// exit path below finalizes it (Finalize is idempotent and nil-safe) so
	// failed, panicked, and interrupted runs still leave honest manifests.
	var ledger *runlog.Run
	fail := func(v ...any) {
		fmt.Fprintln(os.Stderr, v...)
		obs.CountWriteError(ledger.Finalize(runlog.StatusFailed, runlog.Final{Error: strings.TrimSpace(fmt.Sprintln(v...))}))
		os.Exit(1)
	}
	defer func() {
		if p := recover(); p != nil {
			obs.CountWriteError(ledger.Finalize(runlog.StatusPanic, runlog.Final{Error: fmt.Sprint(p)}))
			panic(p)
		}
	}()

	if *zeroOpt && *replicas < 1 {
		fail("-zero requires -replicas N with N ≥ 1")
	}
	if *accum > 1 && *replicas > 0 {
		fail("-accum and -replicas are exclusive: -accum splits the fused gradient into micro-batches, -replicas already computes it one sequence at a time")
	}
	if *ckptEach > 0 && *save == "" {
		fail("-ckpt-every requires -save PATH")
	}

	if *workers > 0 {
		rt.SetWorkers(*workers)
	}

	proxy, err := bench.ProxyByName(*size)
	if err != nil {
		fail(err)
	}
	if *steps > 0 {
		proxy.Steps = *steps
	}
	if *batch > 0 {
		proxy.Batch = *batch
	}
	if *seq > 0 {
		proxy.Seq = *seq
	}
	if *lr > 0 {
		proxy.LR = *lr
	}
	m, err := bench.MethodByName(*method)
	if err != nil {
		fail(err)
	}
	r := m.Rank(*rank, proxy.Model.Dim)
	// This is the CLI's own recipe, not the paper tables': -lr is used as
	// given (no per-method multiplier) and gradients are not clipped.
	opt := m.New(optim.Hyper{LR: proxy.LR}, r, *seed)
	if *zeroOpt {
		opt = zero.NewSharded(opt, *replicas)
	}
	corpus, err := bench.NewCorpus(*seed + 17)
	if err != nil {
		fail(err)
	}
	model := proxy.NewProxyModel(*seed + 33)
	fmt.Printf("pretraining proxy-%s (%d params) with %s, rank %d, lr %g, %d steps, %d workers\n",
		proxy.Name, model.Params().NumParams(), opt.Name(), r, proxy.LR, proxy.Steps, rt.Workers())

	if *runsRoot != "" {
		id := *runID
		if id == "" {
			id = runlog.NewID(proxy.Name, opt.Name())
		}
		ledger, err = runlog.Create(*runsRoot, runlog.Manifest{
			ID:      id,
			Command: "apollo-pretrain",
			Config: map[string]any{
				"size": proxy.Name, "steps": proxy.Steps, "batch": proxy.Batch,
				"seq": proxy.Seq, "rank": r, "lr": proxy.LR,
				"accum": *accum, "workers": rt.Workers(),
				"save": *save, "ckpt_every": *ckptEach, "resume": *resume,
			},
			Optimizer: opt.Name(),
			Seed:      *seed,
			Replicas:  *replicas,
			ZeRO:      *zeroOpt,
		})
		if err != nil {
			fail("run ledger:", err)
		}
		fmt.Printf("run ledger: %s\n", ledger.Dir())
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sigc
			obs.CountWriteError(ledger.Finalize(runlog.StatusInterrupted, runlog.Final{Error: "signal: " + s.String()}))
			os.Exit(130)
		}()
	}

	// Live memory accounting rides on the ledger: the timeline lands in the
	// run's event stream and heap profiles land in the run dir. The component
	// ledger is fed by the training loop; the analytic memmodel prediction for the
	// optimizer state is attached here so every sample carries its own
	// measured-vs-predicted delta. Methods without a memmodel row (plain
	// SGD-family baselines) just record measurements without a prediction.
	var mp *memprof.Profiler
	if ledger != nil && *memEvery > 0 {
		mp = memprof.New(memprof.Config{
			Out:         ledger.Events(),
			SampleEvery: *memEvery,
			HighWater:   *memHW,
			ProfileDir:  ledger.Dir(),
		})
		if m.Mem != nil {
			predicted := memmodel.LiveStateBytes(memmodel.ShapesOf(model.Params().List()), *m.Mem, r)
			if *zeroOpt {
				// ZeRO partitions the same state across the world —
				// the ShardedOptimizerStateBytes rule, per shard.
				for s := 0; s < *replicas; s++ {
					mp.Predict(memprof.ShardComponent(s), predicted/float64(*replicas))
				}
			} else {
				mp.Predict(memprof.CompOptimizerState, predicted)
			}
		}
	}

	startStep := 0
	if *resume != "" {
		st, err := ckpt.LoadFile(*resume)
		if err != nil {
			fail(err)
		}
		if err := ckpt.Restore(st, model.Params().List(), opt, corpus); err != nil {
			fail(err)
		}
		startStep = st.Step
		if startStep >= proxy.Steps {
			fail(fmt.Sprintf("checkpoint is at step %d, run ends at %d — nothing to do", startStep, proxy.Steps))
		}
		fmt.Printf("resumed %s from %s at step %d/%d\n", st.Optimizer, *resume, startStep, proxy.Steps)
	}

	pcfg := train.PretrainConfig{
		Batch: proxy.Batch, Seq: proxy.Seq, Steps: proxy.Steps,
		EvalEvery: max(1, proxy.Steps/10), EvalBatches: 4,
		Schedule:  optim.NewWarmupCosine(proxy.LR, proxy.Steps),
		Accum:     *accum,
		CkptEvery: *ckptEach, CkptPath: *save,
		StartStep: startStep,
		MemProf:   mp,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	// Step events go to the ledger; the watchdog rides along whenever a
	// ledger exists or halting is requested.
	if ledger != nil {
		pcfg.Telemetry = obs.NewTrainRecorder(ledger.Events())
	}
	if ledger != nil || *haltDiv {
		pcfg.Watchdog = runlog.NewWatchdog(runlog.WatchdogConfig{
			Window:      *wdWindow,
			SpikeFactor: *spikeF,
			Halt:        *haltDiv,
			Emit: func(ev runlog.AlertEvent) {
				fmt.Fprintf(os.Stderr, "watchdog: step %d: %s (loss %g, median %g)\n",
					ev.Step, ev.Kind, ev.Loss, ev.Median)
				ledger.Alert(ev)
				// Flight recorder: a health alert is exactly the moment a
				// heap snapshot is worth its disk — capture one (bounded by
				// the profiler's MaxProfiles cap).
				if path := mp.CaptureHeapProfile("watchdog-" + ev.Kind); path != "" {
					fmt.Fprintf(os.Stderr, "watchdog: heap profile → %s\n", path)
				}
			},
		})
	}

	var res train.Result
	if *replicas > 0 {
		mode := "data-parallel"
		if *zeroOpt {
			mode = "data-parallel + ZeRO-sharded optimizer states"
		}
		fmt.Printf("%s: %d replicas sharding the global batch of %d\n", mode, *replicas, proxy.Batch)
		res = train.DPPretrain(model, opt, corpus, train.DPConfig{PretrainConfig: pcfg, Replicas: *replicas})
	} else {
		if *accum > 1 {
			fmt.Printf("gradient accumulation: %d micro-batches per step\n", *accum)
		}
		res = train.Pretrain(model, opt, corpus, pcfg)
	}

	status, fin := res.Final()
	if res.Halted {
		obs.CountWriteError(ledger.Finalize(status, fin))
		fmt.Fprintf(os.Stderr, "halted: %s\n", fin.Error)
		os.Exit(3)
	}

	if peak := mp.Peak(); peak.TotalBytes > 0 {
		fmt.Printf("memory peak: ledger %s (heap in-use %s) at step %d — timeline in %s\n",
			obs.FormatBytes(peak.TotalBytes), obs.FormatBytes(int64(peak.HeapInuse)),
			peak.Step, runlog.EventsFile)
	}
	if err := ledger.Finalize(status, fin); err != nil {
		// The run succeeded but its ledger entry may be torn — say so.
		fmt.Fprintf(os.Stderr, "warning: run ledger finalize: %v\n", obs.CountWriteError(err))
	}
	fmt.Printf("\nfinal: %s\n", res.String())
	if res.PhaseSeconds != nil {
		fmt.Printf("phase breakdown over %s of stepped wall time:\n",
			fmtSeconds(res.StepWallSeconds))
		for _, name := range obs.PhaseNames() {
			if s, ok := res.PhaseSeconds[name]; ok {
				fmt.Printf("  %-10s %10s  (%4.1f%%)\n", name, fmtSeconds(s), 100*s/res.StepWallSeconds)
			}
		}
	}
	if len(res.ReplicaStateBytes) > 0 {
		per := make([]string, len(res.ReplicaStateBytes))
		for i, b := range res.ReplicaStateBytes {
			per[i] = obs.FormatBytes(b)
		}
		fmt.Printf("per-replica optimizer states: [%s] (aggregate %s)\n",
			strings.Join(per, " "), obs.FormatBytes(res.StateBytes))
	}
}

// fmtSeconds prints a duration in seconds at millisecond resolution.
func fmtSeconds(s float64) string { return fmt.Sprintf("%.3fs", s) }
