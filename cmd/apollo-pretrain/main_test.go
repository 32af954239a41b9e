package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"apollo/internal/ckpt"
	"apollo/internal/clitest"
	"apollo/internal/obs/runlog"
)

// The tests drive the real binary, built once.
func TestMain(m *testing.M) { clitest.Main(m, nil, "apollo-pretrain") }

// TestRejectsContradictoryGradientFlags: flag combinations that name a gradient mode which would silently not
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
		out, code := clitest.Run(t, "apollo-pretrain", append([]string{"-size", "60M", "-steps", "2", "-runs", runs}, tc.args...)...)
		if code != 1 {
			t.Fatalf("%v: exit %d, want 1\n%s", tc.args, code, out)
		}
		for _, flag := range tc.want {
			if !strings.Contains(out, flag) {
				t.Fatalf("%v: message does not name %s:\n%s", tc.args, flag, out)
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
// recorded a prediction 2.4× the state the optimizer held. Each step's
// sample follows its step event, and the first sets the high-water mark, so
// the -rank 32 run, under -mem-highwater 1, leaves the run's one heap
// profile; the default run (high-water profiling off) leaves none.
func TestMiniPredictionIgnoresRankFlag(t *testing.T) {
	var states []float64
	for _, tc := range []struct {
		rank    string
		extra   []string
		profile []string // heap profiles the run directory holds
	}{
		{"32", []string{"-mem-highwater", "1"}, []string{"heap-highwater-1.pprof"}},
		{"0", nil, nil},
	} {
		rank := tc.rank
		runs := t.TempDir()
		out, code := clitest.Run(t, "apollo-pretrain", append([]string{"-size", "60M", "-optimizer", "APOLLO-Mini",
			"-rank", rank, "-steps", "3", "-runs", runs, "-run-id", "mini"}, tc.extra...)...)
		if code != 0 {
			t.Fatalf("-rank %s: exit %d\n%s", rank, code, out)
		}
		rd, err := runlog.LoadDir(filepath.Join(runs, "mini"))
		if err != nil {
			t.Fatal(err)
		}
		if len(rd.Steps) != 3 || len(rd.Mem) != 3 {
			t.Fatalf("-rank %s: %d step and %d mem events, want 3 each", rank, len(rd.Steps), len(rd.Mem))
		}
		// The ledger entry is the manifest, the one event stream and the
		// heap profile, if profiling was asked for.
		var names []string
		entries, _ := os.ReadDir(filepath.Join(runs, "mini"))
		for _, e := range entries {
			if info, err := e.Info(); err != nil || info.Size() == 0 {
				t.Fatalf("-rank %s: %s is empty (%v)", rank, e.Name(), err)
			}
			names = append(names, e.Name())
		}
		if want := slices.Concat([]string{runlog.EventsFile}, tc.profile, []string{runlog.ManifestFile}); !slices.Equal(names, want) {
			t.Fatalf("-rank %s: run directory holds %v", rank, names)
		}
		blob, err := os.ReadFile(filepath.Join(runs, "mini", runlog.EventsFile))
		if err != nil {
			t.Fatal(err)
		}
		kinds := regexp.MustCompile(`(?m)^\{"kind":"(\w+)"`).ReplaceAllString(string(blob), "$1 ")
		if !regexp.MustCompile(`^(step [^\n]*\nmem [^\n]*\n){3}$`).MatchString(kinds) || !rd.Mem[0].HighWater {
			t.Fatalf("-rank %s: the stream is not step, mem per step from a high-water sample:\n%s", rank, blob)
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
		if out, code := clitest.Run(t, "apollo-pretrain", args...); code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, out)
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
	out, code := clitest.Run(t, "apollo-pretrain", "-size", "60M", "-steps", "1", "-runs", "",
		"-telemetry", filepath.Join(t.TempDir(), "t.jsonl"))
	if code == 0 || !strings.Contains(out, "flag provided but not defined: -telemetry") {
		t.Fatalf("-telemetry accepted: exit %d\n%s", code, out)
	}
}

// TestUnknownOptimizerListsTheCatalogue: a name that is not a catalogue row
// exits 1 and says what the rows are, before a ledger entry exists.
func TestUnknownOptimizerListsTheCatalogue(t *testing.T) {
	runs := t.TempDir()
	out, code := clitest.Run(t, "apollo-pretrain", "-size", "60M", "-optimizer", "bogus", "-steps", "1", "-runs", runs)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{`"bogus"`, "AdamW", "APOLLO-Mini", "Q-GaLore"} {
		if !strings.Contains(out, want) {
			t.Fatalf("message does not name %s:\n%s", want, out)
		}
	}
	if entries, _ := os.ReadDir(runs); len(entries) != 0 {
		t.Fatalf("rejected run left %d ledger entries", len(entries))
	}
}

// TestDivergedRunFinalizesItsManifest trains SGD at a learning rate that
// turns the loss into NaN on the second step. The run's finals are then
// non-finite, which used to make the manifest unencodable: the run exited
// with its entry still reading "running". It must leave "halted" beside
// exit 3 under -halt-on-divergence and "ok" beside exit 0 without, the NaN
// finals readable either way.
func TestDivergedRunFinalizesItsManifest(t *testing.T) {
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
		out, code := clitest.Run(t, "apollo-pretrain", args...)
		if code != tc.exit {
			t.Fatalf("%v: exit %d, want %d\n%s", tc.extra, code, tc.exit, out)
		}
		if strings.Contains(out, "encode manifest") {
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

// TestResumeEqualsUninterrupted: a run killed after a periodic save and
// continued with -resume ends on the uninterrupted run's final checkpoint,
// byte for byte — weights, optimizer state, RNG and corpus cursors. APOLLO
// and Fira resume before step 50 and cross the catalogue's projection
// refresh (UpdateGap 50): APOLLO draws its next random projection from the
// restored RNG phase, Fira its SVD projection with the limiter scalar
// restored. A -replicas 3 -zero snapshot holds the canonical unsharded
// layout, so it resumes at 4 shards and unsharded alike.
func TestResumeEqualsUninterrupted(t *testing.T) {
	for _, tc := range []struct {
		optimizer string
		steps     int
		world     []string   // the uninterrupted and the preempted run's
		resumes   [][]string // one resumed run each
	}{
		{"APOLLO", 60, nil, [][]string{nil}},
		{"Fira", 60, nil, [][]string{nil}},
		{"AdamW", 30, []string{"-replicas", "3", "-zero"}, [][]string{{"-replicas", "4", "-zero"}, {"-replicas", "1"}}},
	} {
		t.Run(tc.optimizer, func(t *testing.T) {
			dir := t.TempDir()
			args := func(flags []string, more ...string) []string {
				base := []string{"-size", "60M", "-optimizer", tc.optimizer, "-steps", strconv.Itoa(tc.steps), "-workers", "1", "-runs", ""}
				return append(append(base, flags...), more...)
			}
			straight, pre := filepath.Join(dir, "straight.ckpt"), filepath.Join(dir, "pre.ckpt")
			if out, code := clitest.Run(t, "apollo-pretrain", args(tc.world, "-save", straight)...); code != 0 {
				t.Fatalf("uninterrupted: exit %d\n%s", code, out)
			}
			want, err := os.ReadFile(straight)
			if err != nil {
				t.Fatal(err)
			}
			p := clitest.Start(t, "apollo-pretrain", args(tc.world, "-save", pre, "-ckpt-every", "10")...)
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				if _, err := os.Stat(pre); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no periodic save after 30s:\n%s", p.Output())
				}
			}
			p.Cmd.Process.Kill()
			p.Wait(t)
			st, err := ckpt.LoadFile(pre)
			if err != nil {
				t.Fatal(err)
			}
			if st.Step >= min(50, tc.steps) {
				t.Fatalf("preempted at step %d, want before step %d", st.Step, min(50, tc.steps))
			}
			for _, flags := range tc.resumes {
				got := filepath.Join(dir, "resumed.ckpt")
				if out, code := clitest.Run(t, "apollo-pretrain", args(flags, "-resume", pre, "-save", got)...); code != 0 {
					t.Fatalf("resume %v: exit %d\n%s", flags, code, out)
				}
				if blob, err := os.ReadFile(got); err != nil || !bytes.Equal(blob, want) {
					t.Fatalf("resumed at %v: the final checkpoint differs from the uninterrupted run's (%v)", flags, err)
				}
			}
		})
	}
}
