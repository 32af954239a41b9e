package bench

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"apollo/internal/core"
	"apollo/internal/memmodel"
	"apollo/internal/nn"
	"apollo/internal/obs/runlog"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

func TestRegistryComplete(t *testing.T) {
	// The whole registry, in the order -list and -run all print it: every
	// table and figure of the paper's evaluation. Exactly these and nothing
	// else.
	want := slices.Sorted(slices.Values([]string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"table8", "table9", "table10", "table11",
		"fig1-memory", "fig1-throughput", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig9", "scaling-13b",
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
	// stopwatch, and their contracts are tests in internal/serve. So are the
	// contract runners: ZeRO and checkpoint parity are tests in
	// internal/bench and internal/train.
	for _, id := range []string{"runtime", "serve", "load", "zero", "ckpt"} {
		if _, err := Lookup(id); err == nil {
			t.Fatalf("experiment %q is registered again; apollo-bench regenerates the paper, tests pin contracts", id)
		}
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

// TestBuildOptimizerAllNames: every catalogue row builds by name at an
// explicit rank and hands out a fresh instance per call; what cannot be
// built is an error, never a panic.
func TestBuildOptimizerAllNames(t *testing.T) {
	if len(Methods()) != 26 {
		t.Fatalf("the catalogue has %d rows, want the 23 zoo members and the 3 figure variants", len(Methods()))
	}
	for _, m := range Methods() {
		a, err := BuildOptimizer(m.Name, 1e-3, 4, 1)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if b := m.New(optim.Hyper{LR: 1e-3}, m.Rank(4, 32), 1); a == nil || a == b || a.Name() != b.Name() {
			t.Fatalf("%s: BuildOptimizer gave %v, the row's New %v; want two instances of one method", m.Name, a, b)
		}
		if got, err := MethodByName(m.Name); err != nil || got.Name != m.Name {
			t.Fatalf("MethodByName(%q) = %q, %v", m.Name, got.Name, err)
		}
	}
	_, err := BuildOptimizer("bogus", 1e-3, 4, 1)
	if err == nil || !strings.Contains(err.Error(), "APOLLO-Mini") || !strings.Contains(err.Error(), "Q-GaLore") {
		t.Fatalf("unknown name: err %v, want one listing the catalogue", err)
	}
	// A row that uses the rank wants one; rows that do not are built anyway.
	if _, err := BuildOptimizer("GaLore", 1e-3, 0, 1); err == nil {
		t.Fatal("GaLore at rank 0 built")
	}
	for _, name := range []string{"AdamW", "APOLLO-Mini", "APOLLO-Mini w. SVD"} {
		if _, err := BuildOptimizer(name, 1e-3, 0, 1); err != nil {
			t.Fatalf("%s at rank 0: %v", name, err)
		}
	}
}

// TestMethodCatalogueTable checks the README's "Method catalogue" table
// against the catalogue: every row is rendered from a Method, so what the
// README says a name trains at cannot drift from what the tables run.
func TestMethodCatalogueTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	formula := map[string]string{}
	for _, r := range memmodel.Table1() {
		formula[r.Method] = r.StateFormula
	}
	for _, m := range Methods() {
		rank, clip, mem := "r (default dim/4)", "clip at 1", "—"
		if m.Family == familyDense {
			rank = "—"
		} else if m.FixedRank > 0 {
			rank = fmt.Sprint(m.FixedRank)
		}
		if m.Limiter {
			clip = "limiter, no clip"
		}
		if m.Mem != nil {
			mem = m.Mem.Name
			if f, ok := formula[mem]; ok {
				mem += ": " + f
			}
		}
		row := fmt.Sprintf("| `%s` | %s | %s | %g× | %s | %s |", m.Name, m.Family, rank, m.LRScale, clip, mem)
		if !strings.Contains(string(readme), row+"\n") {
			t.Errorf("README.md lacks the catalogue row\n%s", row)
		}
	}
}

// TestMethodRank: the one place the rank policy lives.
func TestMethodRank(t *testing.T) {
	apollo, _ := MethodByName("APOLLO")
	mini, _ := MethodByName("Q-APOLLO-Mini")
	for _, c := range []struct {
		m                    Method
		requested, dim, want int
	}{
		{apollo, 0, 32, 8}, {apollo, -1, 128, 32}, {apollo, 5, 32, 5},
		{mini, 0, 32, 1}, {mini, 32, 32, 1},
	} {
		if got := c.m.Rank(c.requested, c.dim); got != c.want {
			t.Errorf("%s.Rank(%d, %d) = %d, want %d", c.m.Name, c.requested, c.dim, got, c.want)
		}
	}
}

// TestMiniRowsTakeTheSeed: the two APOLLO-Mini rows are core.New at rank 1,
// tensor-wise, at the seed they are handed — bitwise that run at seed s, a
// different one at s+1 — not core.NewMini, whose seed is the constant
// default.
func TestMiniRowsTakeTheSeed(t *testing.T) {
	const s = 7
	h := optim.Hyper{LR: 0.01}
	mini := func(seed uint64) optim.Optimizer {
		return core.New(h, core.Config{Rank: 1, Granularity: core.Tensor, Seed: seed})
	}
	stepped := func(opt optim.Optimizer) []*nn.Param {
		ps := shardParityParams()
		for step := range 3 {
			rng := tensor.NewRNG(uint64(step) + 1)
			for _, p := range ps {
				for i := range p.Grad.Data {
					p.Grad.Data[i] = rng.NormFloat32()
				}
			}
			opt.Step(ps)
		}
		return ps
	}
	same := func(a, b []*nn.Param) bool {
		return slices.EqualFunc(a, b, func(p, q *nn.Param) bool { return p.W.Equal(q.W) })
	}
	for _, c := range []struct {
		row  string
		want func(seed uint64) optim.Optimizer
	}{
		{"APOLLO-Mini", mini},
		{"Q-APOLLO-Mini", func(seed uint64) optim.Optimizer { return optim.NewWeightQuantized(mini(seed), seed+1) }},
	} {
		m, err := MethodByName(c.row)
		if err != nil {
			t.Fatal(err)
		}
		got := stepped(m.New(h, m.Rank(4, 16), s))
		if !same(got, stepped(c.want(s))) {
			t.Errorf("%s at seed %d is not core.New at seed %d", c.row, s, s)
		}
		if same(got, stepped(c.want(s+1))) {
			t.Errorf("%s at seed %d trains like seed %d: the seed does not reach it", c.row, s, s+1)
		}
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
// at bench scale). The run is TestRecipeGolden's APOLLO row with a ledger
// attached and must land on the same bits: the ledger, the recorder and the
// watchdog only observe.
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
	if got := math.Float64bits(res.FinalValPPL); got != 0x4069de7bd603fc38 {
		t.Errorf("final val ppl 0x%016x, TestRecipeGolden's APOLLO row 0x4069de7bd603fc38", got)
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
