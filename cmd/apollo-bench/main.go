// Command apollo-bench regenerates the paper's tables and figures, and
// nothing else. It is not a stopwatch (how fast anything runs is `bash
// benchmark/run.sh`) and not a contract check (ZeRO and checkpoint parity are
// tests: `go test ./internal/bench ./internal/train`).
//
// Usage:
//
//	apollo-bench -list
//	apollo-bench -run table2 [-scale full] [-seed 7]
//	apollo-bench -run table1,table11,fig9 -jobs 3
//	apollo-bench -run all -jobs 4 -workers 2
//
// -jobs schedules independent experiments concurrently with per-runner
// output capture (results print in registry order regardless of completion
// order). -workers sizes the shared tensor worker pool each runner draws
// from; kernels are deterministic at any pool size, so both flags change
// only wall time, never the computed results (table7, the one runner that
// prints measured timings, reports whatever contention it ran under).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"apollo/internal/bench"
	rt "apollo/internal/runtime"
)

func main() {
	var (
		run     = flag.String("run", "", "experiment id to run (or 'all')")
		scale   = flag.String("scale", "quick", "quick | full")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		list    = flag.Bool("list", false, "list available experiments")
		jobs    = flag.Int("jobs", 1, "experiments to run concurrently")
		workers = flag.Int("workers", 0, "tensor worker pool size (0 = GOMAXPROCS)")
		runs    = flag.String("runs", "runs", "run-ledger root for pretrain-family training runs (empty disables; see apollo-runs)")
	)
	flag.Parse()

	if *workers > 0 {
		rt.SetWorkers(*workers)
	}

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-16s %-22s %s\n", e.ID, e.PaperRef, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> (or -run all)")
		}
		return
	}

	sc := bench.Quick
	if *scale == "full" {
		sc = bench.Full
	}

	var targets []bench.Experiment
	if *run == "all" {
		targets = bench.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := bench.Lookup(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			targets = append(targets, e)
		}
	}

	if *jobs > 1 && len(targets) > 1 {
		runConcurrent(targets, *jobs, bench.RunContext{Scale: sc, Seed: *seed, RunRoot: *runs})
		return
	}

	for _, e := range targets {
		fmt.Printf("==== %s (%s) — %s ====\n", e.ID, e.PaperRef, e.Title)
		start := time.Now()
		ctx := &bench.RunContext{Scale: sc, Out: os.Stdout, Seed: *seed, RunRoot: *runs}
		if err := e.Run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("---- %s done in %.1fs ----\n\n", e.ID, time.Since(start).Seconds())
	}
}

// runConcurrent fans the experiments out over the scheduler and prints each
// captured report in registry order.
func runConcurrent(targets []bench.Experiment, jobs int, base bench.RunContext) {
	fmt.Printf("running %d experiments with %d jobs, %d tensor workers\n\n",
		len(targets), jobs, rt.Workers())
	start := time.Now()
	reports := bench.RunConcurrentCtx(targets, jobs, base)
	failed := 0
	for _, r := range reports {
		fmt.Printf("==== %s — %s ====\n", r.ID, r.Title)
		os.Stdout.Write(r.Output)
		if r.Err != nil {
			failed++
			fmt.Printf("!!!! %s failed: %v\n\n", r.ID, r.Err)
			continue
		}
		fmt.Printf("---- %s done in %.1fs ----\n\n", r.ID, r.Seconds)
	}
	fmt.Printf("schedule complete: %d ok, %d failed, %.1fs wall\n",
		len(reports)-failed, failed, time.Since(start).Seconds())
	if failed > 0 {
		os.Exit(1)
	}
}
