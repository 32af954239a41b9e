package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRead drives the one decoder through both of its readers. Seeds are
// the committed cross-commit fixtures of internal/train (eight optimizers,
// nested state among them); before decoding, the harness recomputes the CRC
// of every section the mutated table still frames, so a mutation reaches
// the payload decoders instead of dying at the checksum. Read and ReadModel
// must never panic, and whenever Read accepts a file, ReadModel accepts it
// too with the same identity, LR bits, parameter table and weights, bit
// for bit, and Inspect lists exactly the sections of sectionOrder.
func FuzzRead(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "train", "testdata", "*.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) != 8 {
		f.Fatalf("%d checkpoint fixtures, want 8", len(seeds))
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = resealSections(data)
		st, err := Read(bytes.NewReader(data))
		snap, errModel := ReadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		if errModel != nil {
			t.Fatalf("Read accepts the file, ReadModel refuses it: %v", errModel)
		}
		info, err := Inspect(data)
		if err != nil {
			t.Fatalf("Read accepts the file, Inspect refuses it: %v", err)
		}
		if len(info.Sections) != len(sectionOrder) {
			t.Fatalf("Read accepts a file of %d sections, want %d", len(info.Sections), len(sectionOrder))
		}
		for i, s := range info.Sections {
			if s.Tag != sectionOrder[i] {
				t.Fatalf("Read accepts a file whose section %d is %s, want %s", i+1, s.Tag, sectionOrder[i])
			}
		}
		if snap.Version != st.Version || snap.Optimizer != st.Optimizer || snap.Step != st.Step ||
			math.Float64bits(snap.LR) != math.Float64bits(st.LR) || len(snap.Params) != len(st.Params) {
			t.Fatalf("identity differs: ReadModel %v/%q/%d/%v/%d params, Read %v/%q/%d/%v/%d params",
				snap.Version, snap.Optimizer, snap.Step, snap.LR, len(snap.Params),
				st.Version, st.Optimizer, st.Step, st.LR, len(st.Params))
		}
		for i, p := range st.Params {
			if snap.Params[i] != p {
				t.Fatalf("parameter %d: ReadModel %+v, Read %+v", i, snap.Params[i], p)
			}
			a, b := snap.Weights[i], st.Weights[i]
			if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Data) != len(b.Data) {
				t.Fatalf("weights of %s: %dx%d vs %dx%d", p.Name, a.Rows, a.Cols, b.Rows, b.Cols)
			}
			for j := range a.Data {
				if math.Float32bits(a.Data[j]) != math.Float32bits(b.Data[j]) {
					t.Fatalf("weights of %s differ at %d", p.Name, j)
				}
			}
		}
	})
}

// resealSections returns a copy of raw with the CRC of every section its
// section table still frames recomputed over the payload.
func resealSections(raw []byte) []byte {
	out := bytes.Clone(raw)
	if len(out) < headerBytes {
		return out
	}
	n := binary.LittleEndian.Uint32(out[12:])
	at := headerBytes
	for i := uint32(0); i < n && at+sectionOverhead <= len(out); i++ {
		plen := binary.LittleEndian.Uint64(out[at+4:])
		if plen > uint64(len(out)-at-sectionOverhead) {
			break
		}
		payload := out[at+sectionOverhead : at+sectionOverhead+int(plen)]
		binary.LittleEndian.PutUint32(out[at+12:], crc32.ChecksumIEEE(payload))
		at += sectionOverhead + int(plen)
	}
	return out
}
