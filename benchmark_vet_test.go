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
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a second module with the go tool")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cd benchmark && go vet ./...: %v\n%s", err, out)
	}
}
