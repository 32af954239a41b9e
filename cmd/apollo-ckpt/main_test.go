package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The tests drive the real binaries, built once: apollo-pretrain writes the
// checkpoints, apollo-ckpt reads them back.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "apollo-ckpt-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), ".", "../apollo-pretrain").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	bin = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes one built binary and returns its combined output and exit code.
func run(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(filepath.Join(bin, name), args...).CombinedOutput()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		return string(out), ee.ExitCode()
	}
	return string(out), 0
}

// TestInspectAndVerify trains 6 steps of 8-bit Adam at 3 replicas, unsharded
// and under -zero, and reads the checkpoints back: the dump of a good file,
// -verify on it and on two damaged copies, and the ZeRO file reading exactly
// as the unsharded one does (the on-disk layout is the canonical unsharded
// one, and an INT8 member's rounding noise is keyed by parameter, not by
// which replica steps it).
func TestInspectAndVerify(t *testing.T) {
	dir := t.TempDir()
	plain, sharded := filepath.Join(dir, "plain.ckpt"), filepath.Join(dir, "zero.ckpt")
	for path, extra := range map[string][]string{plain: nil, sharded: {"-zero"}} {
		args := append([]string{"-size", "60M", "-optimizer", "8-bit Adam", "-steps", "6", "-seed", "1",
			"-replicas", "3", "-runs", "", "-save", path}, extra...)
		if out, code := run(t, "apollo-pretrain", args...); code != 0 {
			t.Fatalf("apollo-pretrain %v: exit %d\n%s", extra, code, out)
		}
	}

	out, code := run(t, "apollo-ckpt", plain)
	if code != 0 {
		t.Fatalf("inspect: exit %d\n%s", code, out)
	}
	for _, want := range []string{
		plain + ": format v", "  optimizer   8-bit Adam\n", "  step        6 (lr ", "  opt states  ",
		"  serving     ", "  predicted   ", "(memmodel.CheckpointBytes, rank 0)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "  ok\n"); n < 4 {
		t.Fatalf("%d sections read ok, want the format's four or more:\n%s", n, out)
	}
	zout, code := run(t, "apollo-ckpt", sharded)
	if want := strings.ReplaceAll(out, plain, sharded); code != 0 || zout != want {
		t.Fatalf("the -zero checkpoint reads differently (exit %d):\n%s\nunsharded:\n%s", code, zout, want)
	}

	if out, code := run(t, "apollo-ckpt", "-verify", plain); code != 0 || !strings.HasPrefix(out, plain+": ok (") {
		t.Fatalf("-verify on a good file: exit %d\n%s", code, out)
	}
	raw, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x01
	for name, damaged := range map[string][]byte{"truncated": raw[:len(raw)*2/3], "flipped": flipped} {
		path := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if out, code := run(t, "apollo-ckpt", "-verify", path); code != 1 || !strings.Contains(out, path+": ") || strings.Contains(out, ": ok") {
			t.Fatalf("-verify on the %s copy: exit %d\n%s", name, code, out)
		}
	}
}

// TestPredictsEveryFormulaRow: a checkpoint of any catalogue row with a
// memory formula is priced by its row, within 2% of the file — GaLore over a
// random projection (Flora's formula) and APOLLO w. SVD (Fira's) among them,
// and APOLLO-Mini at rank r, whose checkpoint name states its α rather than
// the row.
func TestPredictsEveryFormulaRow(t *testing.T) {
	dir := t.TempDir()
	dev := regexp.MustCompile(`\(memmodel\.CheckpointBytes, rank 8\) — actual ([-+0-9.]+)%`)
	for _, method := range []string{"GaLore-RP", "APOLLO w. SVD", "APOLLO-Mini (rank r)"} {
		path := filepath.Join(dir, "run.ckpt")
		if out, code := run(t, "apollo-pretrain", "-size", "60M", "-optimizer", method, "-steps", "4",
			"-runs", "", "-save", path); code != 0 {
			t.Fatalf("apollo-pretrain %s: exit %d\n%s", method, code, out)
		}
		out, code := run(t, "apollo-ckpt", path)
		m := dev.FindStringSubmatch(out)
		if code != 0 || m == nil {
			t.Fatalf("%s: exit %d, no prediction at rank 8:\n%s", method, code, out)
		}
		if d, err := strconv.ParseFloat(m[1], 64); err != nil || d < -2 || d > 2 {
			t.Fatalf("%s: predicted size off by %s%% (%v), want within 2%%:\n%s", method, m[1], err, out)
		}
	}
}
