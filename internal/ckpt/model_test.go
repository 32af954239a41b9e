package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// TestReadModelMatchesFullRead: the weights-only view decodes the same
// identity and weights as the full Read, bit-for-bit.
func TestReadModelMatchesFullRead(t *testing.T) {
	params, opt, corpus := testSetup(t)
	st, err := Capture(3, params, opt, corpus)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	snap, err := ReadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Optimizer != st.Optimizer || snap.Step != st.Step || snap.LR != st.LR || snap.Version != Version {
		t.Fatalf("identity drifted: %+v", snap)
	}
	if len(snap.Params) != len(st.Params) {
		t.Fatalf("param table %d != %d", len(snap.Params), len(st.Params))
	}
	var weightBytes int64
	for i := range st.Params {
		if snap.Params[i] != st.Params[i] {
			t.Fatalf("param meta %d: %+v != %+v", i, snap.Params[i], st.Params[i])
		}
		if !snap.Weights[i].Equal(st.Weights[i]) {
			t.Fatalf("weights %s differ from full read", st.Params[i].Name)
		}
		weightBytes += 4 * int64(snap.Weights[i].NumEl())
	}
	if got := snap.WeightBytes(); got != weightBytes {
		t.Fatalf("WeightBytes %d, want %d", got, weightBytes)
	}
	// The weights-only decode must be strictly smaller than the file: the
	// optimizer payload (AdamW = 2x weights here) is never materialized.
	if int64(len(raw)) < 2*weightBytes {
		t.Fatalf("test premise broken: file %d bytes vs weights %d", len(raw), weightBytes)
	}
}

// TestReadModelRejectsCorruptOptimizerSection: the read-only path skips
// decoding OPTP but still verifies its CRC — a served model must
// never come from a file that would be refused for resume.
func TestReadModelRejectsCorruptOptimizerSection(t *testing.T) {
	params, opt, corpus := testSetup(t)
	st, err := Capture(3, params, opt, corpus)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The OPTP payload sits at the tail; flip a byte there.
	raw[len(raw)-9] ^= 1
	if _, err := ReadModel(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt optimizer section accepted by the weights-only read")
	}
}

// TestLoadModelFileAndInstall: the on-disk round trip into a live model.
func TestLoadModelFileAndInstall(t *testing.T) {
	params, opt, corpus := testSetup(t)
	st, err := Capture(3, params, opt, corpus)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.ckpt")
	if err := SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cfg := nn.Config{Vocab: 32, Dim: 8, Hidden: 24, Heads: 2, Layers: 1, MaxSeq: 16}
	fresh := nn.NewModel(cfg, tensor.NewRNG(99))
	if err := snap.InstallWeights(fresh.Params().List()); err != nil {
		t.Fatal(err)
	}
	for i, p := range fresh.Params().List() {
		if !p.W.Equal(params[i].W) {
			t.Fatalf("installed weights differ for %s", p.Name)
		}
	}

	// A mismatched architecture is refused with the table named.
	other := nn.NewModel(nn.Config{Vocab: 32, Dim: 16, Hidden: 24, Heads: 2, Layers: 1, MaxSeq: 16}, tensor.NewRNG(1))
	if err := snap.InstallWeights(other.Params().List()); err == nil {
		t.Fatal("mismatched model accepted")
	}

	// Missing file surfaces the OS error.
	if _, err := LoadModelFile(filepath.Join(t.TempDir(), "nope.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("missing file error %v", err)
	}
}
