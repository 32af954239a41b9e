package apollo

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets runs the real toolchain over the benchmark, which
// is its own module (benchmark/go.mod replaces apollo => ../) and therefore
// invisible to `go build ./... && go test ./...` at the root: a signature
// change in internal/optim, internal/core or internal/zero that breaks
// benchmark/layers must fail tier-1 here, not the benchmark run after merge.
// The module's own tests follow the vet: its contract lint and a tiny
// untraced and traced run of every workload, held to correctness and the
// metric schema (no timing threshold), so a change the benchmark would
// record as run_failed or outputs_incorrect fails here first. -count=1: the
// smoke builds this module's binaries in a subprocess, which the test cache
// cannot see. The smoke inherits the environment's GOMAXPROCS, so the
// workloads' concurrent paths (data-parallel replicas, concurrent serving
// traffic) run on every core the suite has.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks and smoke-tests a second module with the go tool")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "-count=1", "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "benchmark"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("cd benchmark && go %v: %v\n%s", args, err, out)
		}
	}
}
