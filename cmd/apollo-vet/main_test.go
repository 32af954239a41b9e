package main

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// runVet runs the driver via `go run .` with args and returns its exit
// code and stdout — exercising the real process exit contract (0 clean,
// 1 findings, 2 error). stderr is go run's own channel (it appends "exit
// status N") and is surfaced only on unexpected failure.
func runVet(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "."}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stdout.String()
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("go run: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	return ee.ExitCode(), stdout.String()
}

// TestDriverFlagsSeededViolation is the negative check: a vet that stops
// failing on known-bad code is a dead gate, not a green one.
func TestDriverFlagsSeededViolation(t *testing.T) {
	code, out := runVet(t, "-C", "testdata/broken", "./...")
	if code != 1 {
		t.Fatalf("exit %d over seeded violation, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "range over map") || !strings.Contains(out, "[mapiter]") {
		t.Fatalf("missing mapiter diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "declared MethodByName") || !strings.Contains(out, "[seams]") {
		t.Fatalf("missing seams diagnostic:\n%s", out)
	}
}

func TestDriverCleanModuleExitsZero(t *testing.T) {
	code, out := runVet(t, "-C", "testdata/clean", "./...")
	if code != 0 {
		t.Fatalf("exit %d over clean module, want 0\n%s", code, out)
	}
}
