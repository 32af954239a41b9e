package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
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

// TestMiniPredictionIgnoresRankFlag: APOLLO-Mini runs at rank 1 whatever
// -rank says, so the memmodel prediction recorded beside each memory sample
// must too. At -rank 32 on the 60M proxy (dim 32) the flag's value used to
// reach memmodel, which switched every matrix to the dense fallback and
// recorded a prediction 2.4× the state the optimizer held.
func TestMiniPredictionIgnoresRankFlag(t *testing.T) {
	var states []float64
	for _, rank := range []string{"32", "0"} {
		runs := t.TempDir()
		out, err := exec.Command("go", "run", ".", "-size", "60M", "-optimizer", "APOLLO-Mini",
			"-rank", rank, "-steps", "3", "-runs", runs, "-run-id", "mini").CombinedOutput()
		if err != nil {
			t.Fatalf("-rank %s: %v\n%s", rank, err, out)
		}
		blob, err := os.ReadFile(filepath.Join(runs, "mini", "mem.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
		var last struct {
			Components map[string]float64 `json:"components"`
			Predicted  map[string]float64 `json:"predicted"`
			DeltaFrac  map[string]float64 `json:"delta_frac"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("-rank %s: last mem sample: %v", rank, err)
		}
		measured, predicted := last.Components["optimizer_state"], last.Predicted["optimizer_state"]
		if measured <= 0 || predicted != measured || last.DeltaFrac["optimizer_state"] != 0 {
			t.Fatalf("-rank %s: predicted %v vs measured %v (delta_frac %v), want equal",
				rank, predicted, measured, last.DeltaFrac["optimizer_state"])
		}
		states = append(states, measured)
	}
	if states[0] != states[1] {
		t.Fatalf("APOLLO-Mini state depends on -rank: %v", states)
	}
}
