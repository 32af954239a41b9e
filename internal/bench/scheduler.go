package bench

import (
	"bytes"
	"fmt"
	"sync"
	"time"
)

// RunReport captures one experiment's outcome from a concurrent run: its
// full output (runners write to a private buffer, so interleaving is
// impossible), any error, and wall time.
type RunReport struct {
	ID      string
	Title   string
	Output  []byte
	Err     error
	Seconds float64
}

// RunConcurrentCtx executes the experiments with at most jobs running at
// once and returns reports in the input order regardless of completion
// order. Experiments are independent by construction — each builds its own
// models, corpora and optimizers from the shared seed — and the tensor
// kernels they run on the shared worker pool are deterministic at any
// parallelism, so a concurrent registry run prints the same numbers as a
// sequential one. Each runner gets a copy of base with Out replaced by its
// private capture buffer, so RunRoot flows into concurrent runs. The run
// ledger is already safe under this concurrency — IDs carry a process-local
// sequence number, so parallel runners never collide on a directory.
func RunConcurrentCtx(exps []Experiment, jobs int, base RunContext) []RunReport {
	if jobs < 1 {
		jobs = 1
	}
	reports := make([]RunReport, len(exps))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var buf bytes.Buffer
			start := time.Now()
			ctx := base
			ctx.Out = &buf
			err := runCaptured(e, &ctx)
			reports[i] = RunReport{
				ID: e.ID, Title: e.Title, Output: buf.Bytes(),
				Err: err, Seconds: time.Since(start).Seconds(),
			}
		}(i, e)
	}
	wg.Wait()
	return reports
}

// runCaptured converts a runner panic into an error so one bad experiment
// cannot take down the whole concurrent schedule.
func runCaptured(e Experiment, ctx *RunContext) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("bench: %s panicked: %v", e.ID, r)
		}
	}()
	return e.Run(ctx)
}
