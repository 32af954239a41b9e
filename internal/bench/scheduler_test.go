package bench

import (
	"errors"
	"strings"
	"testing"

	"apollo/internal/train"
)

// fakeExperiments builds runners that don't touch the registry (the real
// registry's runners are exercised by bench_test.go; here we test the
// scheduler mechanics).
func fakeExperiments() []Experiment {
	return []Experiment{
		{ID: "a", Title: "first", Run: func(ctx *RunContext) error {
			ctx.Printf("out-a seed=%d", ctx.Seed)
			return nil
		}},
		{ID: "b", Title: "second", Run: func(ctx *RunContext) error {
			ctx.Printf("out-b")
			return errors.New("boom")
		}},
		{ID: "c", Title: "third", Run: func(ctx *RunContext) error {
			panic("kaboom")
		}},
		{ID: "d", Title: "fourth", Run: func(ctx *RunContext) error {
			ctx.Printf("out-d")
			return nil
		}},
	}
}

func TestRunConcurrentCapturesPerRunner(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		reports := RunConcurrentCtx(fakeExperiments(), jobs, RunContext{Scale: Quick, Seed: 9})
		if len(reports) != 4 {
			t.Fatalf("jobs=%d: %d reports", jobs, len(reports))
		}
		// Reports come back in input order with per-runner output intact.
		if reports[0].ID != "a" || string(reports[0].Output) != "out-a seed=9" || reports[0].Err != nil {
			t.Fatalf("jobs=%d: report a = %+v", jobs, reports[0])
		}
		if reports[1].Err == nil || string(reports[1].Output) != "out-b" {
			t.Fatalf("jobs=%d: report b = %+v", jobs, reports[1])
		}
		if reports[2].Err == nil || !strings.Contains(reports[2].Err.Error(), "kaboom") {
			t.Fatalf("jobs=%d: panic not captured: %+v", jobs, reports[2])
		}
		if reports[3].ID != "d" || string(reports[3].Output) != "out-d" {
			t.Fatalf("jobs=%d: report d = %+v", jobs, reports[3])
		}
	}
}

// seedSensitiveExperiments are runners whose entire output is a
// deterministic function of ctx.Seed and real shared-infrastructure work
// (models, corpora, optimizer steps on the shared tensor pool) — the
// workload class the scheduler's determinism contract covers.
func seedSensitiveExperiments() []Experiment {
	run := func(id string, steps int) func(ctx *RunContext) error {
		return func(ctx *RunContext) error {
			proxy, err := ProxyByName("60M")
			if err != nil {
				return err
			}
			corpus, err := NewCorpus(ctx.Seed + 17)
			if err != nil {
				return err
			}
			model := proxy.NewProxyModel(ctx.Seed + 33)
			opt, err := BuildOptimizer("APOLLO-Mini", proxy.LR, proxy.DefaultRank(), ctx.Seed)
			if err != nil {
				return err
			}
			res := train.Pretrain(model, opt, corpus, train.PretrainConfig{
				Batch: 4, Seq: 8, Steps: steps, EvalBatches: 1,
			})
			ctx.Printf("%s seed=%d ppl=%.17g states=%d", id, ctx.Seed, res.FinalValPPL, res.StateBytes)
			return nil
		}
	}
	return []Experiment{
		{ID: "s1", Title: "one", Run: run("s1", 2)},
		{ID: "s2", Title: "two", Run: run("s2", 3)},
		{ID: "s3", Title: "three", Run: run("s3", 1)},
	}
}

// TestRunConcurrentJobsParity pins the scheduler's determinism contract:
// per-experiment reports are byte-identical whatever the -jobs level,
// because every runner builds its own models/corpora from the shared seed
// and the tensor kernels are schedule-independent. A drift here would mean
// experiments share hidden mutable state.
func TestRunConcurrentJobsParity(t *testing.T) {
	ref := RunConcurrentCtx(seedSensitiveExperiments(), 1, RunContext{Scale: Quick, Seed: 7})
	for _, jobs := range []int{2, 4} {
		got := RunConcurrentCtx(seedSensitiveExperiments(), jobs, RunContext{Scale: Quick, Seed: 7})
		if len(got) != len(ref) {
			t.Fatalf("jobs=%d: %d reports, want %d", jobs, len(got), len(ref))
		}
		for i := range ref {
			if got[i].ID != ref[i].ID {
				t.Fatalf("jobs=%d: report %d is %s, want %s (order must be input order)", jobs, i, got[i].ID, ref[i].ID)
			}
			if string(got[i].Output) != string(ref[i].Output) {
				t.Fatalf("jobs=%d: %s output diverged:\n  got  %q\n  want %q",
					jobs, got[i].ID, got[i].Output, ref[i].Output)
			}
			if (got[i].Err == nil) != (ref[i].Err == nil) {
				t.Fatalf("jobs=%d: %s error state diverged", jobs, got[i].ID)
			}
		}
	}
	// And a different seed must actually change the outputs — otherwise the
	// parity above would be vacuous.
	other := RunConcurrentCtx(seedSensitiveExperiments(), 4, RunContext{Scale: Quick, Seed: 8})
	if string(other[0].Output) == string(ref[0].Output) {
		t.Fatal("outputs are seed-insensitive; parity check proves nothing")
	}
}

// TestRunConcurrentRealRunners runs two real registry experiments
// concurrently and checks both produce their captured output.
func TestRunConcurrentRealRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("real runners are slow")
	}
	all := All()
	if len(all) < 2 {
		t.Skip("registry too small")
	}
	picked := all[:2]
	reports := RunConcurrentCtx(picked, 2, RunContext{Scale: Quick, Seed: 1})
	for i, r := range reports {
		if r.Err != nil {
			t.Fatalf("runner %s failed: %v", r.ID, r.Err)
		}
		if len(r.Output) == 0 {
			t.Fatalf("runner %s produced no output", r.ID)
		}
		if r.ID != picked[i].ID {
			t.Fatalf("report order broken: got %s want %s", r.ID, picked[i].ID)
		}
	}
}
