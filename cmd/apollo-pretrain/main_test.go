package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRejectsContradictoryGradientFlags runs the real binary (`go run .`):
// flag combinations that name a gradient mode which would silently not
// happen must exit 1 naming the flags, before any run-ledger entry records
// a configuration the run never had.
func TestRejectsContradictoryGradientFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-accum", "2", "-replicas", "2"}, []string{"-accum", "-replicas"}},
		{[]string{"-zero"}, []string{"-zero", "-replicas"}},
	} {
		runs := t.TempDir()
		cmd := exec.Command("go", append([]string{"run", ".", "-size", "60M", "-steps", "2", "-runs", runs}, tc.args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%v: err %v, want a non-zero exit\n%s", tc.args, err, stderr.String())
		}
		// `go run` reports the child's status on stderr and exits 1 itself.
		if ee.ExitCode() != 1 || !strings.Contains(stderr.String(), "exit status 1") {
			t.Fatalf("%v: exit %d, want 1\n%s", tc.args, ee.ExitCode(), stderr.String())
		}
		for _, flag := range tc.want {
			if !strings.Contains(stderr.String(), flag) {
				t.Fatalf("%v: message does not name %s:\n%s", tc.args, flag, stderr.String())
			}
		}
		if entries, _ := os.ReadDir(runs); len(entries) != 0 {
			t.Fatalf("%v: rejected run left %d ledger entries", tc.args, len(entries))
		}
	}
}
