// Binary checkpoint format: versioned, self-describing, integrity-checked.
//
//	file    := header section*
//	header  := magic[8]="APOLCKPT" | version u32 | nsections u32
//	section := tag[4] | payloadLen u64 | crc32(payload) u32 | payload
//
// All integers are little-endian; float32/float64 travel as their IEEE-754
// bit patterns, so a load reproduces the saved values bit-for-bit. Each
// section carries its own CRC-32 (IEEE): a single flipped byte anywhere in
// a payload is detected at load time and named by section. The four
// sections are META (optimizer identity, step/LR counters, the full
// parameter table with names, kinds and shapes — what makes the file
// self-describing), WGTS (model weights), DATA (the corpus training-stream
// cursor) and OPTP (per-parameter optimizer state in the canonical unsharded
// layout of optim.ParamState).
//
// Version 2 dropped version 1's OPTG section of optimizer-level RNG cursors:
// an optimizer's random draws are keyed by parameter, so its whole state is
// per-parameter. A version-1 file's cursors cannot be translated into keys,
// so Read rejects it rather than resume a different run.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// Format constants.
const (
	// Magic identifies a checkpoint file.
	Magic = "APOLCKPT"
	// Version is the current format version; Read rejects any other.
	Version = 2

	headerBytes     = 8 + 4 + 4
	sectionOverhead = 4 + 8 + 4
)

// Section tags, in file order.
const (
	TagMeta    = "META"
	TagWeights = "WGTS"
	TagData    = "DATA"
	TagStates  = "OPTP"
)

var sectionOrder = []string{TagMeta, TagWeights, TagData, TagStates}

// ParamMeta describes one parameter in the checkpoint's own table.
type ParamMeta struct {
	Name       string
	Kind       uint8
	Rows, Cols int
}

// State is a fully decoded checkpoint: everything needed to resume a
// training run bit-identically, decoupled from any live objects.
type State struct {
	Version   uint32
	Optimizer string
	Step      int
	LR        float64
	Params    []ParamMeta
	Weights   []*tensor.Matrix // one per parameter, in table order
	// DataCursor is the corpus training-stream RNG phase.
	DataCursor uint64
	// OptStates holds one canonical per-parameter state per table entry;
	// nil entries mean the optimizer held no state for that parameter.
	OptStates []*optim.ParamState
}

// enc is a little-endian append-only buffer.
type enc struct{ buf []byte }

func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *enc) str(s string) {
	if len(s) > math.MaxUint16 {
		panic(fmt.Sprintf("ckpt: string of %d bytes", len(s)))
	}
	e.u16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *enc) f32s(v []float32) {
	for _, f := range v {
		e.u32(math.Float32bits(f))
	}
}

func (e *enc) blob(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// dec is the sticky-error reader over one section payload.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("ckpt: truncated payload (want %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) str() string {
	n := int(d.u16())
	return string(d.take(n))
}

func (d *dec) f32s(n int) []float32 {
	b := d.take(4 * n)
	if b == nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func (d *dec) blob() []byte {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.buf)-d.off) {
		d.fail("ckpt: blob of %d bytes exceeds payload", n)
		return nil
	}
	return append([]byte(nil), d.take(int(n))...)
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("ckpt: %d trailing bytes in payload", len(d.buf)-d.off)
	}
	return nil
}

// matrix reads rows×cols float32s; dims validated against the payload size
// before allocation.
func (d *dec) matrix(rows, cols int) *tensor.Matrix {
	if d.err != nil {
		return nil
	}
	// Compare in element units: 4*n could overflow for absurd declared
	// dims, letting a crafted file reach make() and panic.
	n := rows * cols
	if rows < 0 || cols < 0 || n < 0 || (cols != 0 && n/cols != rows) || n > (len(d.buf)-d.off)/4 {
		d.fail("ckpt: matrix %dx%d exceeds payload", rows, cols)
		return nil
	}
	data := d.f32s(n)
	if d.err != nil {
		return nil
	}
	return tensor.FromSlice(rows, cols, data)
}

// encodeParamState serializes one canonical per-parameter state
// (recursively for wrapper-nested states).
func encodeParamState(e *enc, st *optim.ParamState) {
	e.u16(uint16(len(st.Scalars)))
	for _, v := range st.Scalars {
		e.u64(v)
	}
	e.u8(uint8(len(st.RowMats)))
	for _, m := range st.RowMats {
		e.u32(uint32(m.Rows))
		e.u32(uint32(m.Cols))
		e.f32s(m.Data)
	}
	e.u8(uint8(len(st.Whole)))
	for _, m := range st.Whole {
		e.u32(uint32(m.Rows))
		e.u32(uint32(m.Cols))
		e.f32s(m.Data)
	}
	e.u8(uint8(len(st.Blobs)))
	for _, b := range st.Blobs {
		e.blob(b)
	}
	if st.Sub != nil {
		e.u8(1)
		encodeParamState(e, st.Sub)
	} else {
		e.u8(0)
	}
}

// maxStateNesting bounds the Sub chain a file may declare. Legitimate
// nesting is depth 1 (WeightQuantized wrapping an inner optimizer); without
// a cap, a crafted file of repeated Sub-present flags would recurse the
// decoder into an unrecoverable stack overflow.
const maxStateNesting = 4

func decodeParamState(d *dec, depth int) *optim.ParamState {
	if depth > maxStateNesting {
		d.fail("ckpt: optimizer state nested deeper than %d", maxStateNesting)
		return nil
	}
	st := &optim.ParamState{}
	nscalars := int(d.u16())
	for i := 0; i < nscalars && d.err == nil; i++ {
		st.Scalars = append(st.Scalars, d.u64())
	}
	nrow := int(d.u8())
	for i := 0; i < nrow && d.err == nil; i++ {
		rows, cols := int(d.u32()), int(d.u32())
		st.RowMats = append(st.RowMats, d.matrix(rows, cols))
	}
	nwhole := int(d.u8())
	for i := 0; i < nwhole && d.err == nil; i++ {
		rows, cols := int(d.u32()), int(d.u32())
		st.Whole = append(st.Whole, d.matrix(rows, cols))
	}
	nblobs := int(d.u8())
	for i := 0; i < nblobs && d.err == nil; i++ {
		st.Blobs = append(st.Blobs, d.blob())
	}
	if d.u8() != 0 && d.err == nil {
		st.Sub = decodeParamState(d, depth+1)
	}
	if d.err != nil {
		return nil
	}
	return st
}

// encodeSections renders the four section payloads of a State.
func encodeSections(st *State) map[string][]byte {
	meta := &enc{}
	meta.str(st.Optimizer)
	meta.u64(uint64(st.Step))
	meta.u64(math.Float64bits(st.LR))
	meta.u64(uint64(len(st.Params)))
	for _, p := range st.Params {
		meta.str(p.Name)
		meta.u8(p.Kind)
		meta.u32(uint32(p.Rows))
		meta.u32(uint32(p.Cols))
	}

	wgts := &enc{}
	for _, w := range st.Weights {
		wgts.f32s(w.Data)
	}

	data := &enc{}
	data.u64(st.DataCursor)

	optp := &enc{}
	for _, ps := range st.OptStates {
		if ps == nil {
			optp.u8(0)
			continue
		}
		optp.u8(1)
		encodeParamState(optp, ps)
	}

	return map[string][]byte{
		TagMeta:    meta.buf,
		TagWeights: wgts.buf,
		TagData:    data.buf,
		TagStates:  optp.buf,
	}
}

// Write serializes st. The layout is deterministic: identical states
// produce identical bytes, so tests may hash the output.
func Write(w io.Writer, st *State) error {
	if len(st.Weights) != len(st.Params) || len(st.OptStates) != len(st.Params) {
		return fmt.Errorf("ckpt: state tables disagree: %d params, %d weights, %d opt states",
			len(st.Params), len(st.Weights), len(st.OptStates))
	}
	sections := encodeSections(st)
	var buf bytes.Buffer
	buf.WriteString(Magic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], Version)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(sectionOrder)))
	buf.Write(hdr[:])
	for _, tag := range sectionOrder {
		payload := sections[tag]
		buf.WriteString(tag)
		var sh [12]byte
		binary.LittleEndian.PutUint64(sh[0:], uint64(len(payload)))
		binary.LittleEndian.PutUint32(sh[8:], crc32.ChecksumIEEE(payload))
		buf.Write(sh[:])
		buf.Write(payload)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// rawSection is one parsed-but-undecoded section.
type rawSection struct {
	tag     string
	crc     uint32
	payload []byte
}

// readSections parses the header and section table, verifying every CRC.
func readSections(raw []byte) (version uint32, secs []rawSection, err error) {
	if len(raw) < headerBytes || string(raw[:8]) != Magic {
		return 0, nil, fmt.Errorf("ckpt: not a checkpoint file (bad magic)")
	}
	version = binary.LittleEndian.Uint32(raw[8:])
	if version != Version {
		return 0, nil, fmt.Errorf("ckpt: format version %d, this build reads only version %d", version, Version)
	}
	n := int(binary.LittleEndian.Uint32(raw[12:]))
	at := headerBytes
	for i := 0; i < n; i++ {
		if at+sectionOverhead > len(raw) {
			return 0, nil, fmt.Errorf("ckpt: truncated section table (section %d of %d)", i+1, n)
		}
		tag := string(raw[at : at+4])
		plen := binary.LittleEndian.Uint64(raw[at+4:])
		crc := binary.LittleEndian.Uint32(raw[at+12:])
		at += sectionOverhead
		if plen > uint64(len(raw)-at) {
			return 0, nil, fmt.Errorf("ckpt: section %s claims %d bytes, %d remain", tag, plen, len(raw)-at)
		}
		payload := raw[at : at+int(plen)]
		at += int(plen)
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return 0, nil, fmt.Errorf("ckpt: section %s is corrupt (CRC %08x, want %08x)", tag, got, crc)
		}
		secs = append(secs, rawSection{tag: tag, crc: crc, payload: payload})
	}
	if at != len(raw) {
		return 0, nil, fmt.Errorf("ckpt: %d trailing bytes after last section", len(raw)-at)
	}
	return version, secs, nil
}

// Read decodes a checkpoint, verifying the magic, version and every
// section CRC; any corruption is rejected with the offending section named.
func Read(r io.Reader) (*State, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	version, secs, err := readSections(raw)
	if err != nil {
		return nil, err
	}
	byTag := map[string][]byte{}
	for _, s := range secs {
		byTag[s.tag] = s.payload
	}
	for _, tag := range sectionOrder {
		if _, ok := byTag[tag]; !ok {
			return nil, fmt.Errorf("ckpt: missing section %s", tag)
		}
	}

	st := &State{Version: version}
	st.Optimizer, st.Step, st.LR, st.Params, err = decodeMeta(byTag[TagMeta])
	if err != nil {
		return nil, err
	}
	st.Weights, err = decodeWeights(byTag[TagWeights], st.Params)
	if err != nil {
		return nil, err
	}

	data := &dec{buf: byTag[TagData]}
	st.DataCursor = data.u64()
	if err := data.done(); err != nil {
		return nil, fmt.Errorf("ckpt: DATA: %w", err)
	}

	optp := &dec{buf: byTag[TagStates]}
	for range st.Params {
		if optp.u8() == 0 {
			st.OptStates = append(st.OptStates, nil)
			continue
		}
		st.OptStates = append(st.OptStates, decodeParamState(optp, 0))
	}
	if err := optp.done(); err != nil {
		return nil, fmt.Errorf("ckpt: OPTP: %w", err)
	}
	return st, nil
}

// SectionInfo summarizes one section for the inspector.
type SectionInfo struct {
	Tag string
	Len int64
	CRC uint32
}

// FileInfo is the inspector's view of a checkpoint: header fields and the
// section table. Building one verifies every CRC.
type FileInfo struct {
	Size     int64
	Version  uint32
	Sections []SectionInfo
}

// Inspect parses the header and section table of a serialized checkpoint,
// verifying integrity without decoding the payloads.
func Inspect(raw []byte) (*FileInfo, error) {
	version, secs, err := readSections(raw)
	if err != nil {
		return nil, err
	}
	info := &FileInfo{Size: int64(len(raw)), Version: version}
	for _, s := range secs {
		info.Sections = append(info.Sections, SectionInfo{Tag: s.tag, Len: int64(len(s.payload)), CRC: s.crc})
	}
	return info, nil
}
