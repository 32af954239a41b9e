package main

import (
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// memplan runs the real binary (`go run .`) and returns its combined output.
func memplan(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command("go", append([]string{"run", "."}, args...)...).CombinedOutput()
	return string(out), err
}

// field extracts the number that follows label on one line of the plan.
func field(t *testing.T, out, label string) float64 {
	t.Helper()
	m := regexp.MustCompile(regexp.QuoteMeta(label) + `\s+([-+0-9.]+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no %q line in:\n%s", label, out)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHeadlinePlan: the paper's headline — LLaMA-7B with APOLLO-Mini, INT8
// weights, layer-wise gradients and activation checkpointing trains in under
// 12 GB, so it fits the 24 GB consumer device.
func TestHeadlinePlan(t *testing.T) {
	out, err := memplan(t, "-model", "7B", "-method", "APOLLO-Mini", "-int8", "-layerwise", "-ckpt")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if total := field(t, out, "total"); total <= 0 || total >= 12 {
		t.Fatalf("total %.2f GiB, want under 12:\n%s", total, out)
	}
	if !regexp.MustCompile(`RTX4090-24GB\s+\(24 GB\): fits`).MatchString(out) {
		t.Fatalf("plan does not fit the 24 GB device:\n%s", out)
	}
}

// TestMiniIsRankOne: APOLLO-Mini is rank 1 whatever -rank says. The header
// used to print the caller's rank (1024 on 7B), and at -rank 600 on the 60M
// config (hidden 512) the caller's rank reached memmodel, which priced every
// matrix at the dense fallback.
func TestMiniIsRankOne(t *testing.T) {
	out, err := memplan(t, "-model", "7B", "-method", "APOLLO-Mini")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.HasPrefix(out, "7B + APOLLO-Mini (rank 1),") {
		t.Fatalf("header does not read rank 1:\n%s", out)
	}
	plain, err := memplan(t, "-model", "60M", "-method", "APOLLO-Mini")
	if err != nil {
		t.Fatalf("%v\n%s", err, plain)
	}
	ranked, err := memplan(t, "-model", "60M", "-method", "APOLLO-Mini", "-rank", "600")
	if err != nil {
		t.Fatalf("%v\n%s", err, ranked)
	}
	if plain != ranked {
		t.Fatalf("-rank 600 changes APOLLO-Mini's plan:\n%s\nvs\n%s", plain, ranked)
	}
}

func TestUnknownMethodExitsOne(t *testing.T) {
	out, err := memplan(t, "-method", "bogus")
	// `go run` reports the child's status on stderr and exits 1 itself.
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(out, "exit status 1") {
		t.Fatalf("err %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(out, `unknown method "bogus"`) {
		t.Fatalf("message does not name the method:\n%s", out)
	}
}

// TestJoinsTheCommittedBaseline: -run-dir lines the run's recorded component
// peaks up against the prediction the run recorded for itself; on the
// committed APOLLO baseline the optimizer state holds to the accounting.
func TestJoinsTheCommittedBaseline(t *testing.T) {
	out, err := memplan(t, "-model", "60M", "-method", "APOLLO", "-run-dir", "../../ci/baseline/baseline-60m-apollo")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	m := regexp.MustCompile(`optimizer_state\s+[0-9.]+ MiB peak\s+predicted\s+[0-9.]+ MiB\s+delta ([-+0-9.]+)%`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no optimizer_state row with a prediction:\n%s", out)
	}
	if delta, err := strconv.ParseFloat(m[1], 64); err != nil || delta < -2 || delta > 2 {
		t.Fatalf("optimizer_state delta %s%% (err %v), want inside ±2%%", m[1], err)
	}
}
