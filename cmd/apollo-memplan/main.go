// Command apollo-memplan prints the analytic training-memory breakdown for
// any paper-scale model and optimizer, and checks device feasibility.
//
// Usage:
//
//	apollo-memplan -model 7B -method APOLLO-Mini -int8 -layerwise -ckpt
//	apollo-memplan -model 13B -method AdamW -seq 256
//	apollo-memplan -model 7B -method AdamW -zero 8   # ZeRO-sharded states
//	apollo-memplan -model 60M -method APOLLO -run-dir runs/<id>
//
// -run-dir joins a run's recorded memory timeline (the "mem" events of its
// events.jsonl, written by apollo-pretrain) against the plan: recorded component peaks line up next
// to the analytic rows, and components the run predicted for themselves
// (via memmodel.LiveStateBytes over the live shapes) show their measured-vs-
// predicted delta. Note the scales differ by design — the plan prices the
// paper-scale model, while runs record the shrunken proxy — so the joined
// view answers "did the accounting hold" (the delta column), not "did the
// proxy reach paper size".
package main

import (
	"flag"
	"fmt"
	"os"

	"apollo/internal/bench"
	"apollo/internal/cluster"
	"apollo/internal/memmodel"
	"apollo/internal/obs/runlog"
)

func main() {
	var (
		model     = flag.String("model", "7B", "60M 130M 350M 1B 7B 13B")
		method    = flag.String("method", "APOLLO", "catalogue method name (README, \"Method catalogue\"); any row with a memory formula")
		rank      = flag.Int("rank", 0, "low-rank dimension (0 = hidden/4)")
		seq       = flag.Int("seq", 256, "sequence length")
		micro     = flag.Int("micro", 1, "micro-batch size")
		int8W     = flag.Bool("int8", false, "INT8 group-quantized weights")
		layerwise = flag.Bool("layerwise", false, "layer-wise gradient updates")
		ckpt      = flag.Bool("ckpt", false, "full activation checkpointing")
		zeroWorld = flag.Int("zero", 0, "ZeRO-shard optimizer states across N replicas (0 = unsharded)")
		runDir    = flag.String("run-dir", "", "join this run directory's recorded memory peaks against the plan")
	)
	flag.Parse()

	cfg, err := memmodel.ConfigByName(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m, err := bench.MethodByName(*method)
	if err == nil && m.Mem == nil {
		err = fmt.Errorf("apollo-memplan: %s has no memory-model formula", m.Name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	r := m.Rank(*rank, cfg.Hidden)
	plan := memmodel.Plan{
		Config: cfg, Method: *m.Mem, Rank: r,
		SeqLen: *seq, MicroBatch: *micro,
		Int8Weights: *int8W, LayerWiseGrad: *layerwise, ActivationCkpt: *ckpt,
		ZeroWorld: *zeroWorld,
	}
	b := memmodel.Compute(plan)
	fmt.Printf("%s + %s (rank %d), seq %d, micro-batch %d\n", cfg.Name, m.Name, r, *seq, *micro)
	if *zeroWorld > 1 {
		fmt.Printf("  optimizer states ZeRO-sharded across %d replicas (per-replica plan)\n", *zeroWorld)
	}
	fmt.Printf("  weights      %8.2f GiB\n", memmodel.GiB(b.Weights))
	fmt.Printf("  gradients    %8.2f GiB\n", memmodel.GiB(b.Gradients))
	fmt.Printf("  optim states %8.2f GiB\n", memmodel.GiB(b.States))
	fmt.Printf("  activations  %8.2f GiB\n", memmodel.GiB(b.Activations))
	fmt.Printf("  total        %8.2f GiB\n", memmodel.GiB(b.Total()))
	// Predicted on-disk checkpoint size (internal/ckpt format): float32
	// weights + the method's full serialized optimizer state. World-independent:
	// a -zero N run steps one optimizer's own state (the map only charges and
	// broadcasts), so it writes the same file an unsharded run would.
	ckptBytes := memmodel.CheckpointBytesFor(cfg, *m.Mem, r)
	note := ""
	if *zeroWorld > 1 {
		note = " (canonical layout — same file at any -zero world)"
	}
	fmt.Printf("  checkpoint   %8.2f GiB on disk%s\n\n", memmodel.GiB(ckptBytes), note)

	for _, dev := range []cluster.Device{cluster.A100_80G(), cluster.RTX4090()} {
		verdict := "fits"
		if b.Total() > dev.MemBytes {
			verdict = "OOM"
		}
		fmt.Printf("  %-14s (%.0f GB): %s\n", dev.Name, dev.MemBytes/1e9, verdict)
	}

	if *runDir != "" {
		if err := joinRun(*runDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// joinRun prints the recorded side of the predicted-vs-actual join: the run
// directory's recorded component peaks, each with the analytic prediction
// the run recorded for itself (if any) and the measured-vs-predicted delta.
func joinRun(dir string) error {
	rd, err := runlog.LoadDir(dir)
	if err != nil {
		return err
	}
	if len(rd.Mem) == 0 {
		return fmt.Errorf("%s has no memory timeline (no mem events in %s) — rerun apollo-pretrain with a run ledger", dir, runlog.EventsFile)
	}
	fmt.Printf("\nrecorded run %s (%s, %d samples):\n", rd.Manifest.ID, rd.Manifest.Optimizer, len(rd.Mem))
	for _, p := range rd.ComponentPeaks() {
		line := fmt.Sprintf("  %-24s %10.4f MiB peak", p.Name, float64(p.Bytes)/(1<<20))
		if p.Predicted > 0 {
			line += fmt.Sprintf("  predicted %10.4f MiB  delta %+.2f%%",
				p.Predicted/(1<<20), 100*(float64(p.Bytes)-p.Predicted)/p.Predicted)
		}
		fmt.Println(line)
	}
	if peak, ok := rd.MemPeak(); ok {
		fmt.Printf("  %-24s %10.4f MiB peak (step %d)\n", "ledger total", float64(peak.TotalBytes)/(1<<20), peak.Step)
	}
	return nil
}
