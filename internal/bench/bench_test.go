package bench

import (
	"bytes"
	"strings"
	"testing"

	"apollo/internal/obs/runlog"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure from the paper's evaluation must have a runner.
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"table8", "table9", "table10", "table11",
		"fig1-memory", "fig1-throughput", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig9", "scaling-13b",
		// Beyond the paper: measured parallel-runtime counterpart of the
		// cluster simulator's throughput claims, the ZeRO-sharded
		// optimizer-state experiment on top of the DP trainer, the
		// checkpoint/resume + elastic-resharding experiment, the
		// checkpoint-streamed evaluation service, and its open-loop load
		// harness.
		"runtime", "zero", "ckpt", "serve", "load",
	}
	for _, id := range want {
		if _, err := Lookup(id); err != nil {
			t.Fatalf("missing experiment %q: %v", id, err)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("table99"); err == nil {
		t.Fatal("expected error")
	}
}

func TestProxiesValid(t *testing.T) {
	for _, p := range Proxies() {
		if err := p.Model.Validate(); err != nil {
			t.Fatalf("proxy %s: %v", p.Name, err)
		}
		if p.DefaultRank() < 1 {
			t.Fatalf("proxy %s: rank %d", p.Name, p.DefaultRank())
		}
	}
	if _, err := ProxyByName("60M"); err != nil {
		t.Fatal(err)
	}
	if _, err := ProxyByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

// zooNames is every name BuildOptimizer answers to.
var zooNames = []string{
	"AdamW", "SGD", "SGD-M", "Adam-mini", "8-bit Adam", "8-bit GaLore",
	"Low-Rank", "LoRA", "ReLoRA", "DoRA", "GaLore", "GaLore-RP", "Fira",
	"Flora", "APOLLO", "APOLLO w. SVD", "APOLLO-Tensor", "APOLLO-Mini",
	"Q-APOLLO", "Q-APOLLO-Mini", "Q-GaLore",
	"StructuredAdamW-channel", "StructuredAdamW-tensor",
}

func TestBuildOptimizerAllNames(t *testing.T) {
	for _, n := range zooNames {
		opt, err := BuildOptimizer(n, 1e-3, 4, 1)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if opt == nil {
			t.Fatalf("%s: nil optimizer", n)
		}
	}
	if _, err := BuildOptimizer("bogus", 1e-3, 4, 1); err == nil {
		t.Fatal("expected error for unknown optimizer")
	}
}

// TestAnalyticRunners executes the cheap (no-training) experiments end to
// end and sanity-checks their output.
func TestAnalyticRunners(t *testing.T) {
	for _, id := range []string{"table1", "fig1-memory", "fig1-throughput", "fig9", "table11", "scaling-13b"} {
		t.Run(id, func(t *testing.T) {
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			ctx := &RunContext{Scale: Quick, Out: &buf, Seed: 1}
			if err := e.Run(ctx); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if len(out) < 100 {
				t.Fatalf("suspiciously short output:\n%s", out)
			}
			// Every runner should either discuss the method or cite the
			// paper artifact it regenerates.
			if !strings.Contains(out, "APOLLO") && !strings.Contains(out, "paper") {
				t.Fatalf("output mentions neither APOLLO nor the paper:\n%s", out)
			}
		})
	}
}

func TestFig1ThroughputOrderingInOutput(t *testing.T) {
	e, _ := Lookup("fig1-throughput")
	var buf bytes.Buffer
	if err := e.Run(&RunContext{Scale: Quick, Out: &buf, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// AdamW line should be the 1.00x baseline.
	if !strings.Contains(out, "1.00x AdamW") {
		t.Fatalf("missing baseline line:\n%s", out)
	}
}

// TestPretrainOneSmoke runs the shared pretraining helper at a minimal step
// count for a couple of methods to guard the heavy runners' plumbing.
func TestPretrainOneSmoke(t *testing.T) {
	proxy, err := ProxyByName("60M")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &RunContext{Scale: Quick, Out: &bytes.Buffer{}, Seed: 1}
	for _, m := range []string{"AdamW", "APOLLO", "APOLLO-Mini"} {
		res, err := pretrainOne(ctx, proxy, m, 0, 30, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.FinalValPPL <= 1 || res.FinalValPPL > 1000 {
			t.Fatalf("%s: implausible ppl %v", m, res.FinalValPPL)
		}
	}
}

func TestStepsScaling(t *testing.T) {
	quick := &RunContext{Scale: Quick}
	full := &RunContext{Scale: Full}
	if got := quick.steps(400); got != 200 {
		t.Fatalf("quick steps = %d want 200", got)
	}
	if got := quick.steps(40); got != 60 {
		t.Fatalf("quick floor = %d want 60", got)
	}
	if got := full.steps(400); got != 400 {
		t.Fatalf("full steps = %d want 400", got)
	}
}

// TestPretrainOneWritesLedger: with a RunRoot configured, the shared
// pretraining helper leaves a complete, finalized ledger entry — and the
// real 60M training curve raises no watchdog alerts (false-positive guard
// at bench scale).
func TestPretrainOneWritesLedger(t *testing.T) {
	proxy, err := ProxyByName("60M")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	ctx := &RunContext{Scale: Quick, Out: &bytes.Buffer{}, Seed: 1, RunRoot: root}
	const steps = 30
	res, err := pretrainOne(ctx, proxy, "APOLLO", 0, steps, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := runlog.List(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("%d ledger entries, want 1", len(ms))
	}
	m := ms[0]
	if m.Status != runlog.StatusOK || m.Command != "apollo-bench" || m.Optimizer != "APOLLO" {
		t.Fatalf("manifest wrong: %+v", m)
	}
	if m.Steps != steps || m.Alerts != 0 || m.FinalPPL != res.FinalValPPL {
		t.Fatalf("finals wrong: %+v", m)
	}
	rd, err := runlog.Load(root, m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Steps) != steps || rd.Steps[steps-1].Step != steps {
		t.Fatalf("step series wrong: %d events", len(rd.Steps))
	}
}
