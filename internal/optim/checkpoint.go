// Checkpoint hooks: the state-serialization counterpart of the
// introspection/sharding hooks in shard.go. Every optimizer in the zoo
// exposes its complete persistent state — moments, step counters, projector
// matrices and the phase of every RNG stream — in a canonical per-parameter
// form, so internal/ckpt can persist a training run and resume it
// bit-identically (per Cattaneo et al., the optimizer's memory is part of
// the effective objective: dropping any of it silently changes the
// trajectory).
//
// The canonical form is *unsharded*: one ParamState per parameter, covering
// all rows, in global parameter order. A ZeRO-partitioned wrapper
// (internal/zero) gathers shard-owned row segments into this layout on save
// and re-slices it for an arbitrary new world size on load — which is what
// makes checkpoints elastic: a `-replicas 3 -zero` snapshot resumes under
// `-replicas 4 -zero` or unsharded without losing bit-parity.
//
// This file holds the canonical form, its row slicing/merging and the
// saver/loader interfaces. Where each optimizer's layout comes from: every
// member of the zoo declares a Schema and embeds the StateTable that derives
// CaptureParam / RestoreParam (and the global cursors) from it — state.go;
// the README's checkpoint table is checked against those declarations by
// TestCheckpointLayoutTable. The one hand-written pair left is
// WeightQuantized's, below: it nests its inner optimizer's state.
package optim

import (
	"encoding/binary"
	"fmt"
	"math"

	"apollo/internal/nn"
	"apollo/internal/quant"
	"apollo/internal/tensor"
)

// ParamState is the canonical serializable optimizer state for one
// parameter (or a row range of one, while a partitioned wrapper is
// gathering/scattering). Matrices are deep copies, decoupled from the live
// optimizer. The split into row-aligned and whole matrices is what makes
// ZeRO gather/scatter mechanical: RowMats can be cut and concatenated along
// parameter rows without knowing which optimizer produced them, while Whole
// matrices (projected moments, SVD projections) only ever belong to
// never-split parameters.
type ParamState struct {
	// Scalars carries step counters, projector seeds, RNG phases and
	// float64 bit patterns in a fixed order documented per optimizer.
	// Row-split segments of one parameter must agree on all scalars.
	Scalars []uint64
	// RowMats are matrices whose rows align 1:1 with the parameter's rows
	// (dense moments, velocities, per-row second moments).
	RowMats []*tensor.Matrix
	// Whole are matrices with no row alignment (rank-space moments, SVD
	// projection matrices); present only on never-split parameters.
	Whole []*tensor.Matrix
	// Blobs carries opaque bytes (INT8 codes and group scales, which
	// straddle row boundaries); present only on never-split parameters.
	Blobs [][]byte
	// Sub nests the state a wrapped inner optimizer holds for the same
	// parameter (WeightQuantized); present only on never-split parameters.
	Sub *ParamState
}

// splittable reports whether the state may be cut along parameter rows.
func (st *ParamState) splittable() bool {
	return len(st.Whole) == 0 && len(st.Blobs) == 0 && st.Sub == nil
}

// SliceRows returns the state restricted to parameter rows [r0, r1) — the
// scatter half of elastic resharding. Only row-aligned states can be cut.
func (st *ParamState) SliceRows(r0, r1 int) (*ParamState, error) {
	if !st.splittable() {
		return nil, fmt.Errorf("optim: cannot row-slice a state with whole matrices, blobs or nested state")
	}
	if r0 < 0 || r1 <= r0 {
		return nil, fmt.Errorf("optim: bad state row range [%d, %d)", r0, r1)
	}
	out := &ParamState{Scalars: append([]uint64(nil), st.Scalars...)}
	for _, m := range st.RowMats {
		if r1 > m.Rows {
			return nil, fmt.Errorf("optim: state row range [%d, %d) exceeds %d rows", r0, r1, m.Rows)
		}
		s := tensor.NewMatrix(r1-r0, m.Cols)
		copy(s.Data, m.Data[r0*m.Cols:r1*m.Cols])
		out.RowMats = append(out.RowMats, s)
	}
	return out, nil
}

// MergeRowStates concatenates per-segment states back into the canonical
// full-parameter state — the gather half of elastic resharding. parts[i]
// covers rows [segs[i][0], segs[i][1]); segments must tile [0, rows)
// in ascending order and agree on every scalar.
func MergeRowStates(rows int, parts []*ParamState, segs [][2]int) (*ParamState, error) {
	if len(parts) == 0 || len(parts) != len(segs) {
		return nil, fmt.Errorf("optim: merge of %d parts with %d segments", len(parts), len(segs))
	}
	first := parts[0]
	if !first.splittable() {
		return nil, fmt.Errorf("optim: cannot row-merge a state with whole matrices, blobs or nested state")
	}
	out := &ParamState{Scalars: append([]uint64(nil), first.Scalars...)}
	for _, m := range first.RowMats {
		out.RowMats = append(out.RowMats, tensor.NewMatrix(rows, m.Cols))
	}
	at := 0
	for i, part := range parts {
		r0, r1 := segs[i][0], segs[i][1]
		if r0 != at || r1 <= r0 || r1 > rows {
			return nil, fmt.Errorf("optim: merge segment [%d, %d) does not tile rows at %d", r0, r1, at)
		}
		at = r1
		if len(part.Scalars) != len(first.Scalars) || len(part.RowMats) != len(first.RowMats) || !part.splittable() {
			return nil, fmt.Errorf("optim: merge segment %d has a different state layout", i)
		}
		for j, v := range part.Scalars {
			if v != first.Scalars[j] {
				return nil, fmt.Errorf("optim: merge segments disagree on scalar %d (%d vs %d)", j, v, first.Scalars[j])
			}
		}
		for j, m := range part.RowMats {
			if m.Rows != r1-r0 || m.Cols != out.RowMats[j].Cols {
				return nil, fmt.Errorf("optim: merge segment %d matrix %d is %dx%d, want %dx%d",
					i, j, m.Rows, m.Cols, r1-r0, out.RowMats[j].Cols)
			}
			copy(out.RowMats[j].Data[r0*m.Cols:r1*m.Cols], m.Data)
		}
	}
	if at != rows {
		return nil, fmt.Errorf("optim: merge segments cover %d of %d rows", at, rows)
	}
	return out, nil
}

// StateSaver exposes an optimizer's complete persistent state for
// checkpointing. CaptureGlobals returns optimizer-level cursors shared
// across parameters (RNG stream phases), in a fixed per-optimizer order;
// CaptureParam returns the canonical state held for p (nil when none is —
// lazy allocation hasn't touched it, or the method keeps no state). All
// returned data is deeply copied.
type StateSaver interface {
	CaptureGlobals() ([]uint64, error)
	CaptureParam(p *nn.Param) (*ParamState, error)
}

// StateLoader restores state captured by the matching StateSaver,
// allocating (or overwriting) the per-parameter state so the next Step
// continues bit-identically to the run that wrote the checkpoint.
type StateLoader interface {
	RestoreGlobals(gs []uint64) error
	RestoreParam(p *nn.Param, st *ParamState) error
}

// CheckpointNamer lets a wrapper report the identity checkpoints should be
// keyed by. internal/zero's Sharded returns its inner optimizer's name, so
// a sharded checkpoint resumes under any world size — including none.
type CheckpointNamer interface {
	CheckpointName() string
}

// F64Bits / F64From round-trip float64 values through the uint64 scalar
// channel bit-exactly.
func F64Bits(f float64) uint64 { return math.Float64bits(f) }
func F64From(u uint64) float64 { return math.Float64frombits(u) }

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// int8Blob / blobInt8 and f32Blob / blobF32 move quantized tensors through
// the opaque byte channel. The decoders fill a destination the caller sized
// from its own declaration; the caller has checked the blob's length.
func int8Blob(v []int8) []byte {
	out := make([]byte, len(v))
	for i, c := range v {
		out[i] = byte(c)
	}
	return out
}

func blobInt8(dst []int8, b []byte) {
	for i := range dst {
		dst[i] = int8(b[i])
	}
}

func f32Blob(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(f))
	}
	return out
}

func blobF32(dst []float32, b []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// ---------------------------------------------------------------------------
// WeightQuantized — globals: [own RNG phase] ++ inner globals. Per
// parameter: Scalars [has quantized weight, per-weight RNG phase];
// Blobs [codes, scales] when present; Sub nests the inner optimizer's state.

// CaptureGlobals implements StateSaver.
func (w *WeightQuantized) CaptureGlobals() ([]uint64, error) {
	inner, err := w.inner.CaptureGlobals()
	if err != nil {
		return nil, err
	}
	return append([]uint64{w.rng.State()}, inner...), nil
}

// CaptureParam implements StateSaver.
func (w *WeightQuantized) CaptureParam(p *nn.Param) (*ParamState, error) {
	sub, err := w.inner.CaptureParam(p)
	if err != nil {
		return nil, err
	}
	q, hasQ := w.qw[p]
	if !hasQ && sub == nil {
		return nil, nil
	}
	out := &ParamState{Scalars: []uint64{boolBit(hasQ), 0}, Sub: sub}
	if hasQ {
		out.Scalars[1] = q.RNGState()
		out.Blobs = [][]byte{int8Blob(q.Q.Codes), f32Blob(q.Q.Scales)}
	}
	return out, nil
}

// RestoreGlobals implements StateLoader.
func (w *WeightQuantized) RestoreGlobals(gs []uint64) error {
	if len(gs) < 1 {
		return fmt.Errorf("optim: %s: missing global cursor", w.Name())
	}
	w.rng.SetState(gs[0])
	return w.inner.RestoreGlobals(gs[1:])
}

// RestoreParam implements StateLoader: the wrapper's own part is checked
// against what Step would have built for p, the nested state goes to the
// inner optimizer, and the INT8 weight is installed only once both passed.
func (w *WeightQuantized) RestoreParam(p *nn.Param, st *ParamState) error {
	who := w.Name() + " " + p.Name
	if st == nil || len(st.Scalars) != 2 || st.Scalars[0] > 1 || len(st.RowMats)+len(st.Whole) != 0 {
		return fmt.Errorf("optim: %s: malformed quantized-weight state", who)
	}
	hasQ := st.Scalars[0] == 1
	switch {
	case !hasQ && (st.Sub == nil || st.Scalars[1] != 0 || len(st.Blobs) != 0):
		return fmt.Errorf("optim: %s: state without a quantized weight carries one, or nothing at all", who)
	case hasQ && (p.Kind == nn.KindVector || len(st.Blobs) != 2):
		return fmt.Errorf("optim: %s: quantized weight on a vector parameter, or not as [codes, scales]", who)
	}
	var q *quant.QuantizedWeight
	if hasQ {
		q = quant.NewQuantizedWeight(p.W, quant.DefaultGroupSize, 0)
		if codes, scales := st.Blobs[0], st.Blobs[1]; len(codes) != len(q.Q.Codes) || len(scales) != 4*len(q.Q.Scales) {
			return fmt.Errorf("optim: %s: %d INT8 codes and %d scale bytes, want %d and %d",
				who, len(codes), len(scales), len(q.Q.Codes), 4*len(q.Q.Scales))
		}
		blobInt8(q.Q.Codes, st.Blobs[0])
		blobF32(q.Q.Scales, st.Blobs[1])
		q.SetRNGState(st.Scalars[1])
	}
	if st.Sub != nil {
		if err := w.inner.RestoreParam(p, st.Sub); err != nil {
			return err
		}
	}
	if hasQ {
		w.qw[p] = q
	}
	return nil
}
