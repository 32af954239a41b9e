package bench

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"apollo/internal/obs/runlog"
)

func TestRegistryComplete(t *testing.T) {
	// The whole registry, in the order -list and -run all print it: every
	// table and figure of the paper's evaluation, plus the two contract rows
	// that go beyond it — ZeRO-sharded optimizer state and checkpoint/resume
	// with elastic resharding. Exactly these and nothing else.
	want := slices.Sorted(slices.Values([]string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"table8", "table9", "table10", "table11",
		"fig1-memory", "fig1-throughput", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig9", "scaling-13b",
		"zero", "ckpt",
	}))
	var got []string
	for _, e := range All() {
		got = append(got, e.ID)
		if e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Fatalf("experiment %q is incomplete: %+v", e.ID, e)
		}
		if _, err := Lookup(e.ID); err != nil {
			t.Fatalf("listed experiment %q cannot be looked up: %v", e.ID, err)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("registry holds\n  %v\nwant\n  %v", got, want)
	}
	// The wall-clock runners are gone for good: benchmark/ is the one
	// stopwatch, and their contracts are tests in internal/serve.
	for _, id := range []string{"runtime", "serve", "load"} {
		if _, err := Lookup(id); err == nil {
			t.Fatalf("experiment %q is registered again; timing belongs to benchmark/", id)
		}
	}
}

// TestContractRowsCanFail: a parity row that reads DRIFT must turn into an
// error naming the runner and the row, so `apollo-bench -run zero,ckpt` exits
// 1 instead of printing the word and returning success.
func TestContractRowsCanFail(t *testing.T) {
	c := contract{id: "ckpt"}
	if cell := c.parity("AdamW", 12.5, 12.5); cell != "exact" || c.err() != nil {
		t.Fatalf("equal pair: cell %q, err %v", cell, c.err())
	}
	if cell := c.parity("APOLLO", 12.5, math.Nextafter(12.5, 13)); cell != "DRIFT" {
		t.Fatalf("one-ulp mismatch printed %q, want DRIFT", cell)
	}
	c.fail("corruption check")
	err := c.err()
	if err == nil {
		t.Fatal("a DRIFT row and a failed check returned no error")
	}
	for _, want := range []string{"ckpt", "APOLLO", "corruption check"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "AdamW") {
		t.Fatalf("error %q names a row that held", err)
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
	// The constructor form reports a bad name up front and hands out a
	// fresh instance per call (zero.NewSharded wants one per shard).
	if build, err := OptimizerBuilder("bogus", 1e-3, 4, 1); err == nil || build != nil {
		t.Fatalf("OptimizerBuilder(bogus): constructor nil=%v, err %v; want nil and an error", build == nil, err)
	}
	build, err := OptimizerBuilder("APOLLO", 1e-3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := build(), build(); a == b || a.Name() != "APOLLO" {
		t.Fatalf("OptimizerBuilder must build a fresh APOLLO per call (got %s, same instance: %v)", a.Name(), a == b)
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
