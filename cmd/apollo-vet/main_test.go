package main

import (
	"bytes"
	"strings"
	"testing"

	"apollo/internal/clitest"
)

// The tests drive the real binary, built once.
func TestMain(m *testing.M) { clitest.Main(m, nil, "apollo-vet") }

// runVet runs the driver with args and returns its exit code and stdout —
// the real process exit contract (0 clean, 1 findings, 2 error).
func runVet(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout bytes.Buffer
	cmd := clitest.Command("apollo-vet", args...)
	cmd.Stdout = &stdout
	return clitest.Exit(t, cmd), stdout.String()
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
