// Command e2e measures one episode of one workload through the surfaces a
// refactor must keep: the facade package for the training workloads, the
// apollo-pretrain and apollo-serve commands for serve_mixed. It imports
// nothing under apollo/internal, and prints one spec.Episode as the last
// line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"syscall"
	"time"

	"apollo"
	"apollo/benchmark/spec"
)

// processStart is as close to process start as Go code gets; set-up time
// counts from here.
var processStart = time.Now()

func main() {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "seed of model init, corpus, projectors and request content")
		seconds  = flag.Float64("seconds", 24, "serve_mixed: measuring budget shared by the phases")
		bin      = flag.String("bin", "", "serve_mixed: directory holding apollo-pretrain and apollo-serve")
		tmp      = flag.String("tmp", "", "serve_mixed: scratch directory for the checkpoint")
		trace    = flag.String("trace", "", "serve_mixed: scrape /metrics around the phases and write request spans to this file")
		parity   = flag.Bool("parity", false, "pretrain_dpzero: check replica/ZeRO weight parity and print the verdict, no timing")
		tiny     = flag.Bool("tiny", false, "smoke-test sizes")
	)
	flag.Parse()

	var ep spec.Episode
	var err error
	if *workload == spec.Serve {
		ep, err = runServe(serveOptions{
			mix: spec.Serving(*seconds, *tiny), seed: *seed, bin: *bin, tmp: *tmp, trace: *trace,
		})
	} else if w, ok := spec.TrainByName(*workload, *tiny); !ok {
		err = fmt.Errorf("unknown workload %q", *workload)
	} else if *parity {
		ep, err = checkParity(w, *seed)
	} else {
		ep, err = runTrain(w, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(ep); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

// clock ticks at every training-batch draw. The facade exports
// Corpus.HookTrainBatch but not its argument type, so the hook is a generic
// function the assignment instantiates.
var clock *spec.StepClock

func tick[B any](*B) { clock.Tick() }

// runTrain runs one training episode through the facade with no telemetry
// on: the only instrument is the batch hook, which takes the step times and
// the host-reference samples beside them.
func runTrain(w spec.Train, seed uint64) (spec.Episode, error) {
	model, opt, corpus, err := w.Build(seed)
	if err != nil {
		return spec.Episode{}, err
	}
	clock = spec.NewStepClock(w.RefPasses)
	corpus.HookTrainBatch = tick
	var res apollo.Result
	if w.Replicas > 0 {
		res = apollo.DPPretrain(model, opt, corpus, apollo.DPConfig{PretrainConfig: w.Config(), Replicas: w.Replicas})
	} else {
		res = apollo.Pretrain(model, opt, corpus, w.Config())
	}
	if clock.Ticks() != w.Warmup+w.Steps+1 {
		return spec.Episode{}, fmt.Errorf("%s: %d batch draws, want %d", w.Name, clock.Ticks(), w.Warmup+w.Steps+1)
	}

	ep := spec.Episode{Attempted: 1, StateBytes: res.StateBytes}
	// Under ZeRO the paper's per-device quantity is the largest shard.
	for i, b := range res.ReplicaStateBytes {
		if i == 0 || b > ep.StateBytes {
			ep.StateBytes = b
		}
	}
	ep.SetupS = []float64{clock.Setup(processStart, w.Warmup)}
	ep.LatencyMS = clock.Steps(w.Warmup)
	ep.Slowdown = clock.Slowdowns()
	ep.Tokens = float64(w.Steps * w.Batch * w.Seq)
	for _, ms := range ep.LatencyMS {
		ep.WindowS += ms / 1e3
	}

	final := res.Series[len(res.Series)-1].ValLoss
	ep.FinalLoss = spec.ExactFloat(final)
	if math.IsNaN(final) || math.IsInf(final, 0) {
		ep.Failed = 1
		ep.Problems = append(ep.Problems, "final validation loss is "+ep.FinalLoss)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return spec.Episode{}, fmt.Errorf("getrusage: %w", err)
	}
	ep.PeakRSSKB = ru.Maxrss
	return ep, nil
}

// checkParity is the determinism contract pretrain_dpzero leans on: three
// steps on one replica and three on Replicas with ZeRO must leave
// byte-identical weights.
func checkParity(w spec.Train, seed uint64) (spec.Episode, error) {
	weights := func(v spec.Train, replicas int) ([]*apollo.Param, error) {
		model, opt, corpus, err := v.Build(seed)
		if err != nil {
			return nil, err
		}
		cfg := v.Config()
		cfg.Steps = 3
		apollo.DPPretrain(model, opt, corpus, apollo.DPConfig{PretrainConfig: cfg, Replicas: replicas})
		return model.Params().List(), nil
	}
	plain := w
	plain.Replicas = 0 // the unsharded optimizer
	one, err := weights(plain, 1)
	if err != nil {
		return spec.Episode{}, err
	}
	many, err := weights(w, w.Replicas)
	if err != nil {
		return spec.Episode{}, err
	}
	ep := spec.Episode{Attempted: 1}
	for i, p := range one {
		for j, v := range p.W.Data {
			if math.Float32bits(v) != math.Float32bits(many[i].W.Data[j]) {
				ep.Failed = 1
				ep.Problems = append(ep.Problems, fmt.Sprintf(
					"replicas 1 and replicas %d + ZeRO differ after 3 steps at %s[%d]", w.Replicas, p.Name, j))
				return ep, nil
			}
		}
	}
	return ep, nil
}
