package ckpt

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// testSetup builds a tiny model, an AdamW optimizer with populated state,
// and a corpus whose cursor has advanced.
func testSetup(t *testing.T) ([]*nn.Param, optim.Optimizer, *data.Corpus) {
	t.Helper()
	cfg := nn.Config{Vocab: 32, Dim: 8, Hidden: 24, Heads: 2, Layers: 1, MaxSeq: 16}
	model := nn.NewModel(cfg, tensor.NewRNG(5))
	opt := optim.NewAdamW(optim.Hyper{LR: 1e-3})
	srcCfg := data.DefaultSourceConfig()
	srcCfg.Vocab = 32
	src, err := data.NewSource(srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.NewCorpus(src, 7, 8)
	params := model.Params().List()
	// Populate optimizer state and advance the data cursor.
	for i := 0; i < 3; i++ {
		b := corpus.NextTrainBatch(2, 8)
		model.Params().ZeroGrad()
		model.Loss(b.Tokens, b.Targets, b.B, b.T)
		opt.Step(params)
	}
	return params, opt, corpus
}

// TestWriteReadRoundTrip checks a snapshot survives serialization
// bit-for-bit, including scalars, weights and per-parameter states.
func TestWriteReadRoundTrip(t *testing.T) {
	params, opt, corpus := testSetup(t)
	st, err := Capture(3, params, opt, corpus)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Optimizer != st.Optimizer || got.Step != st.Step || got.LR != st.LR ||
		got.DataCursor != st.DataCursor || got.Version != Version {
		t.Fatalf("header fields drifted: %+v vs %+v", got, st)
	}
	if len(got.Params) != len(st.Params) {
		t.Fatalf("param table %d != %d", len(got.Params), len(st.Params))
	}
	for i := range st.Params {
		if got.Params[i] != st.Params[i] {
			t.Fatalf("param meta %d: %+v != %+v", i, got.Params[i], st.Params[i])
		}
		if !got.Weights[i].Equal(st.Weights[i]) {
			t.Fatalf("weights %s differ after round trip", st.Params[i].Name)
		}
		a, b := got.OptStates[i], st.OptStates[i]
		if (a == nil) != (b == nil) {
			t.Fatalf("state presence differs for %s", st.Params[i].Name)
		}
		if a == nil {
			continue
		}
		if len(a.Scalars) != len(b.Scalars) || len(a.RowMats) != len(b.RowMats) {
			t.Fatalf("state layout differs for %s", st.Params[i].Name)
		}
		for j := range b.Scalars {
			if a.Scalars[j] != b.Scalars[j] {
				t.Fatalf("scalar %d differs for %s", j, st.Params[i].Name)
			}
		}
		for j := range b.RowMats {
			if !a.RowMats[j].Equal(b.RowMats[j]) {
				t.Fatalf("row matrix %d differs for %s", j, st.Params[i].Name)
			}
		}
	}
}

// TestWriteDeterministic pins the byte-level determinism contract: the same
// state serializes to identical bytes.
func TestWriteDeterministic(t *testing.T) {
	params, opt, corpus := testSetup(t)
	st, err := Capture(3, params, opt, corpus)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := Write(&a, st); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of one state produced different bytes")
	}
}

// TestCRCDetectsCorruption flips every byte position in turn across a small
// sample and checks the loader rejects each corrupted file with a CRC (or
// structural) error — the save → corrupt one byte → reject contract.
func TestCRCDetectsCorruption(t *testing.T) {
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
	// Exhaustively flipping every byte is slow for big payloads; stride
	// through the file and always hit the header and each section header.
	stride := len(raw)/256 + 1
	for at := 0; at < len(raw); at += stride {
		mut := append([]byte(nil), raw...)
		mut[at] ^= 0x40
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("corruption at byte %d of %d went undetected", at, len(raw))
		}
	}
	// Truncation is rejected too.
	if _, err := Read(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Fatal("truncated file went undetected")
	}
	if _, err := Read(bytes.NewReader(raw[:4])); err == nil {
		t.Fatal("header stub went undetected")
	}
}

// TestVersionOneRejected: a version-1 file carries optimizer-level RNG
// cursors that version 2 has no place for, so both read paths refuse it by
// its header, naming the version found and the one this build reads.
func TestVersionOneRejected(t *testing.T) {
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
	binary.LittleEndian.PutUint32(raw[len(Magic):], 1)
	_, errRead := Read(bytes.NewReader(raw))
	_, errModel := ReadModel(bytes.NewReader(raw))
	for i, err := range []error{errRead, errModel} {
		if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 2") {
			t.Errorf("%s of a version-1 header: %v, want an error naming versions 1 and 2", []string{"Read", "ReadModel"}[i], err)
		}
	}
}

// TestNestingBombRejected pins the decoder's recursion cap: a crafted OPTP
// payload that is just a chain of Sub-present flags must come back as a
// decode error, not a stack overflow.
func TestNestingBombRejected(t *testing.T) {
	params, opt, corpus := testSetup(t)
	st, err := Capture(3, params, opt, corpus)
	if err != nil {
		t.Fatal(err)
	}
	// Legal nesting at the cap round-trips…
	deep := &optim.ParamState{Scalars: []uint64{1}}
	for i := 0; i < maxStateNesting; i++ {
		deep = &optim.ParamState{Scalars: []uint64{uint64(i)}, Sub: deep}
	}
	st.OptStates[0] = deep
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("nesting at the cap rejected: %v", err)
	}
	// …one level past it is refused.
	st.OptStates[0] = &optim.ParamState{Scalars: []uint64{9}, Sub: deep}
	buf.Reset()
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("nesting bomb accepted")
	}
}

// TestInspect checks the section table view: five sections in order, sizes
// summing to the file, and corruption surfacing as an error.
func TestInspect(t *testing.T) {
	params, opt, corpus := testSetup(t)
	st, err := Capture(3, params, opt, corpus)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != Version || len(info.Sections) != len(sectionOrder) {
		t.Fatalf("unexpected file info %+v", info)
	}
	total := int64(headerBytes)
	for i, s := range info.Sections {
		if s.Tag != sectionOrder[i] {
			t.Fatalf("section %d is %s, want %s", i, s.Tag, sectionOrder[i])
		}
		total += sectionOverhead + s.Len
	}
	if total != info.Size {
		t.Fatalf("section sizes sum to %d, file is %d", total, info.Size)
	}

	mut := append([]byte(nil), buf.Bytes()...)
	mut[len(mut)-1] ^= 1
	if _, err := Inspect(mut); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("inspect of corrupted file: %v", err)
	}
}

// TestSaveLoadFile checks the atomic file path and that restoring into
// fresh objects reproduces weights, cursor and LR exactly.
func TestSaveLoadFile(t *testing.T) {
	params, opt, corpus := testSetup(t)
	st, err := Capture(3, params, opt, corpus)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	// A second save replaces the first atomically.
	if err := SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	if files, _ := os.ReadDir(filepath.Dir(path)); len(files) != 1 {
		t.Fatalf("temp files left behind: %v", files)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	freshParams, freshOpt, freshCorpus := testSetup(t)
	// Perturb so Restore provably overwrites.
	freshParams[0].W.Fill(42)
	freshCorpus.SeekTrain(0)
	if err := Restore(loaded, freshParams, freshOpt, freshCorpus); err != nil {
		t.Fatal(err)
	}
	for i, p := range freshParams {
		if !p.W.Equal(params[i].W) {
			t.Fatalf("restored weight %s differs", p.Name)
		}
	}
	if freshCorpus.TrainCursor() != corpus.TrainCursor() {
		t.Fatal("data cursor not restored")
	}
	if freshOpt.LR() != opt.LR() {
		t.Fatal("LR not restored")
	}
}

// TestRestoreRejectsMismatch pins the safety checks: wrong optimizer and
// wrong model shape are both refused.
func TestRestoreRejectsMismatch(t *testing.T) {
	params, opt, corpus := testSetup(t)
	st, err := Capture(3, params, opt, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(st, params, optim.NewSGD(optim.Hyper{LR: 1e-3}, 0.9), corpus); err == nil {
		t.Fatal("restore with a different optimizer was accepted")
	}
	cfg := nn.Config{Vocab: 32, Dim: 16, Hidden: 40, Heads: 2, Layers: 1, MaxSeq: 16}
	other := nn.NewModel(cfg, tensor.NewRNG(1))
	if err := Restore(st, other.Params().List(), opt, corpus); err == nil {
		t.Fatal("restore into a mismatched model was accepted")
	}
}
