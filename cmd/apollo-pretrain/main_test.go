package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"apollo/internal/obs/runlog"
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
		rd, err := runlog.LoadDir(filepath.Join(runs, "mini"))
		if err != nil {
			t.Fatal(err)
		}
		if len(rd.Steps) != 3 || len(rd.Mem) != 3 {
			t.Fatalf("-rank %s: %d step and %d mem events, want 3 each", rank, len(rd.Steps), len(rd.Mem))
		}
		// The ledger entry is the manifest and the one event stream.
		var names []string
		entries, _ := os.ReadDir(filepath.Join(runs, "mini"))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if !slices.Equal(names, []string{runlog.EventsFile, runlog.ManifestFile}) {
			t.Fatalf("-rank %s: run directory holds %v", rank, names)
		}
		last := rd.Mem[len(rd.Mem)-1]
		measured, predicted := float64(last.Components["optimizer_state"]), last.Predicted["optimizer_state"]
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

// TestINT8PredictionIsPricedInBytes: the prediction recorded beside each
// memory sample is memmodel's live byte price, so an INT8 row's one byte per
// code (plus an fp32 scale per group) is not booked at fp32 width. Priced
// at four bytes an element, 8-bit Adam used to record delta_frac −0.742 and
// 8-bit GaLore −0.688, fused and on each -zero shard alike.
func TestINT8PredictionIsPricedInBytes(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "apollo-pretrain")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		optimizer string
		replicas  int // 0: fused; else -replicas N -zero
	}{
		{"8-bit Adam", 0},
		{"8-bit GaLore", 0},
		{"8-bit Adam", 2},
	} {
		runs := t.TempDir()
		args := []string{"-size", "60M", "-optimizer", tc.optimizer, "-steps", "3", "-runs", runs, "-run-id", "q"}
		components := []string{"optimizer_state"}
		if tc.replicas > 0 {
			args = append(args, "-replicas", strconv.Itoa(tc.replicas), "-zero")
			components = nil
			for s := 0; s < tc.replicas; s++ {
				components = append(components, fmt.Sprintf("optimizer_state_shard%d", s))
			}
		}
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		rd, err := runlog.LoadDir(filepath.Join(runs, "q"))
		if err != nil {
			t.Fatal(err)
		}
		if len(rd.Mem) != 3 {
			t.Fatalf("%v: %d mem events, want 3", args, len(rd.Mem))
		}
		last := rd.Mem[len(rd.Mem)-1]
		var measured, predicted float64
		for _, c := range components {
			m, ok := last.Components[c]
			if !ok || last.Predicted[c] <= 0 {
				t.Fatalf("%v: no measured and predicted %s in %+v", args, c, last)
			}
			measured += float64(m)
			predicted += last.Predicted[c]
		}
		if dev := (measured - predicted) / predicted; math.Abs(dev) > 0.02 {
			t.Errorf("%v: recorded %.0f state bytes against a prediction of %.0f (%+.3f)", args, measured, predicted, dev)
		}
		if d := last.DeltaFrac["optimizer_state"]; tc.replicas == 0 && math.Abs(d) > 0.02 {
			t.Errorf("%v: delta_frac.optimizer_state %.3f outside ±0.02", args, d)
		}
	}
}

// TestTelemetryFlagIsGone: the step series has one home, the ledger's
// events.jsonl; the second copy -telemetry used to tee is not an option.
func TestTelemetryFlagIsGone(t *testing.T) {
	out, err := exec.Command("go", "run", ".", "-size", "60M", "-steps", "1", "-runs", "",
		"-telemetry", filepath.Join(t.TempDir(), "t.jsonl")).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "flag provided but not defined: -telemetry") {
		t.Fatalf("-telemetry accepted: err %v\n%s", err, out)
	}
}

// TestUnknownOptimizerListsTheCatalogue: a name that is not a catalogue row
// exits 1 and says what the rows are, before a ledger entry exists.
func TestUnknownOptimizerListsTheCatalogue(t *testing.T) {
	runs := t.TempDir()
	out, err := exec.Command("go", "run", ".", "-size", "60M", "-optimizer", "bogus", "-steps", "1", "-runs", runs).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(string(out), "exit status 1") {
		t.Fatalf("err %v, want exit status 1\n%s", err, out)
	}
	for _, want := range []string{`"bogus"`, "AdamW", "APOLLO-Mini", "Q-GaLore"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("message does not name %s:\n%s", want, out)
		}
	}
	if entries, _ := os.ReadDir(runs); len(entries) != 0 {
		t.Fatalf("rejected run left %d ledger entries", len(entries))
	}
}

// TestDivergedRunFinalizesItsManifest builds the real binary (`go run` would
// fold every exit status into 1) and trains SGD at a learning rate that
// turns the loss into NaN on the second step. The run's finals are then
// non-finite, which used to make the manifest unencodable: the run exited
// with its entry still reading "running". It must leave "halted" beside
// exit 3 under -halt-on-divergence and "ok" beside exit 0 without, the NaN
// finals readable either way.
func TestDivergedRunFinalizesItsManifest(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "apollo-pretrain")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		extra  []string
		exit   int
		status string
		steps  int
	}{
		{[]string{"-halt-on-divergence"}, 3, runlog.StatusHalted, 2},
		{nil, 0, runlog.StatusOK, 30},
	} {
		runs := t.TempDir()
		args := append([]string{"-size", "60M", "-steps", "30", "-optimizer", "SGD", "-lr", "1e30", "-runs", runs, "-run-id", "d"}, tc.extra...)
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatalf("%v: %v", tc.extra, err)
		}
		if got := cmd.ProcessState.ExitCode(); got != tc.exit {
			t.Fatalf("%v: exit %d (%v), want %d\n%s", tc.extra, got, err, tc.exit, out)
		}
		if strings.Contains(string(out), "encode manifest") {
			t.Fatalf("%v: the manifest was not encodable:\n%s", tc.extra, out)
		}
		m, err := runlog.ReadManifest(filepath.Join(runs, "d"))
		if err != nil {
			t.Fatal(err)
		}
		if m.Status != tc.status || m.Steps != tc.steps || m.End.IsZero() {
			t.Fatalf("%v: manifest status %q after %d steps (end %v), want %q after %d", tc.extra, m.Status, m.Steps, m.End, tc.status, tc.steps)
		}
		if !math.IsNaN(m.FinalLoss) || !math.IsNaN(m.FinalPPL) {
			t.Fatalf("%v: finals read back as loss %v ppl %v, want NaN", tc.extra, m.FinalLoss, m.FinalPPL)
		}
	}
}
