package main

import (
	"context"
	"math"
	"regexp"
	"testing"

	"apollo/benchmark/spec"
)

// TestContract holds BENCHMARK.json to the limits a malformed file would be
// refused for before a single run.
func TestContract(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, d metricDecl) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("%s metric name %q is malformed or used twice", kind, d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for i, w := range c.Workloads {
		if i >= len(spec.Names) || w.Name != spec.Names[i] {
			t.Errorf("workload %d is %q, the benchmark runs %v", i, w.Name, spec.Names)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range c.EndToEnd {
		check("end-to-end", d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range c.PerLayer {
		check("per-layer", d)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
}

// TestSmoke runs every workload untraced and traced at tiny sizes through
// both measuring binaries and holds the printed object to the schema.
func TestSmoke(t *testing.T) {
	b, err := newBench("..", true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := b.build(ctx, true); err != nil {
		t.Fatal(err)
	}
	for _, name := range spec.Names {
		for _, traced := range []bool{false, true} {
			res, err := b.run(ctx, name, 7, 0.1, traced)
			if err != nil {
				t.Fatalf("%s traced %v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced %v: correct %v attempted %d failed %d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			decls := b.contract.EndToEnd
			if traced {
				decls = b.contract.PerLayer
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s traced %v: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced %v: metric %s = %+v (present %v)", name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v; it may never be 0", name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "latency_ms_p50", Better: "lower", Bound: 0.1}
	higher := metricDecl{Name: "tokens_per_s", Better: "higher", Bound: 0.1}
	tight := func(med float64) summary { return summary{q1: med * 0.99, med: med, q3: med * 1.01, n: 10} }
	wide := func(med float64) summary { return summary{q1: med * 0.9, med: med, q3: med * 1.1, n: 10} }
	cases := []struct {
		d              metricDecl
		parent, change summary
		want           string
	}{
		{lower, tight(100), tight(105), "unchanged"},
		{lower, tight(100), tight(115), "REGRESSED"},
		{lower, tight(100), tight(80), "unchanged"},
		{lower, wide(100), tight(105), "unresolved"},
		{higher, tight(100), tight(85), "REGRESSED"},
		{higher, tight(100), wide(120), "unresolved"},
	}
	for _, c := range cases {
		if got, _ := judge(c.d, c.parent, c.change); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.d.Name, c.parent.med, c.change.med, got, c.want)
		}
	}
}
