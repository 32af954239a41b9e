package main

import (
	"bytes"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"apollo/internal/bench"
	"apollo/internal/clitest"
)

// The tests drive the real binary, built once.
func TestMain(m *testing.M) { clitest.Main(m, nil, "apollo-bench") }

// runBench runs the binary in an empty working directory and fails the test
// if the run leaves anything behind: with the ledger off (-runs ""),
// apollo-bench prints and writes nothing — in particular no BENCH_*.json.
func runBench(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cwd := t.TempDir()
	cmd := clitest.Command("apollo-bench", args...)
	cmd.Dir = cwd
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	exit = clitest.Exit(t, cmd)
	left, err := os.ReadDir(cwd)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("%v left %s in its working directory", args, e.Name())
	}
	return out.String(), errb.String(), exit
}

func TestListPrintsTheRegistry(t *testing.T) {
	stdout, _, exit := runBench(t, "-list")
	if exit != 0 {
		t.Fatalf("-list exited %d", exit)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if lines[0] != "available experiments:" {
		t.Fatalf("unexpected header %q", lines[0])
	}
	var got, want []string
	for _, l := range lines[1:] {
		got = append(got, strings.Fields(l)[0])
	}
	for _, e := range bench.All() {
		want = append(want, e.ID)
	}
	if len(got) != 21 || !slices.Equal(got, want) {
		t.Fatalf("-list printed %d ids\n  %v\nwant the 21 of the registry\n  %v", len(got), got, want)
	}
	for _, id := range got {
		switch id {
		case "runtime", "serve", "load":
			t.Fatalf("-list still offers %q; timing belongs to benchmark/run.sh", id)
		case "zero", "ckpt":
			t.Fatalf("-list still offers %q; its contract is a test", id)
		}
	}
}

func TestRunConcurrentPrintsInRegistryOrder(t *testing.T) {
	stdout, stderr, exit := runBench(t, "-run", "table1,table11", "-jobs", "2", "-runs", "")
	if exit != 0 {
		t.Fatalf("exit %d\n%s%s", exit, stdout, stderr)
	}
	first, second := strings.Index(stdout, "==== table1 "), strings.Index(stdout, "==== table11 ")
	if first < 0 || second < 0 || first > second {
		t.Fatalf("want table1 then table11 (offsets %d, %d):\n%s", first, second, stdout)
	}
	if !strings.Contains(stdout, "schedule complete: 2 ok, 0 failed") {
		t.Fatalf("no clean schedule summary:\n%s", stdout)
	}
}

func TestUnknownExperimentExitsOne(t *testing.T) {
	stdout, stderr, exit := runBench(t, "-run", "nope", "-runs", "")
	if exit != 1 || !strings.Contains(stderr, `"nope"`) {
		t.Fatalf("exit %d, stderr %q", exit, stderr)
	}
	if strings.Contains(stdout, "====") {
		t.Fatalf("a runner started before the bad id was rejected:\n%s", stdout)
	}
	// The retired stopwatches are unknown ids like any other.
	for _, id := range []string{"runtime", "serve", "load"} {
		if _, _, exit := runBench(t, "-run", "table1,"+id, "-runs", ""); exit != 1 {
			t.Fatalf("-run table1,%s exited %d, want 1", id, exit)
		}
	}
}

// TestDoesNotLinkTheService: apollo-bench reproduces the paper; it must not
// grow a second serving harness next to benchmark/'s serve_mixed again.
func TestDoesNotLinkTheService(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if dep == "apollo/internal/serve" {
			t.Fatalf("apollo-bench links %s", dep)
		}
	}
}
