// Checkpoint hooks: the state-serialization counterpart of the
// introspection/sharding hooks in shard.go. Every optimizer in the zoo
// exposes its complete persistent state — moments, step counters, projector
// matrices and seeds, and the cursor of every per-parameter RNG stream — in
// a canonical per-parameter form, so internal/ckpt can persist a training
// run and resume it bit-identically (per Cattaneo et al., the optimizer's
// memory is part of the effective objective: dropping any of it silently
// changes the trajectory).
//
// The canonical form is *unsharded*: one ParamState per parameter, covering
// all rows, in global parameter order. A ZeRO partition (internal/zero) is an
// ownership map over one optimizer's own state — the map only charges and
// broadcasts — so it saves and restores through that optimizer's hooks, and
// checkpoints are elastic by construction: a `-replicas 3 -zero` snapshot
// resumes under `-replicas 4 -zero` or unsharded without losing bit-parity.
//
// This file holds the canonical form and the saver/loader interfaces. Where each optimizer's layout comes from: every
// member of the zoo declares a Schema and embeds the StateTable that derives
// CaptureParam / RestoreParam from it — state.go;
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

// ParamState is the canonical serializable optimizer state for one whole
// parameter. Matrices are deep copies, decoupled from the live optimizer.
// The split into row-aligned and whole matrices is a file layout, not a cut
// line: nothing slices or merges a state along rows.
type ParamState struct {
	// Scalars carries step counters, projector seeds, RNG cursors and
	// float64 bit patterns in a fixed order documented per optimizer.
	Scalars []uint64
	// RowMats are matrices whose rows align 1:1 with the parameter's rows
	// (dense moments, velocities, per-row second moments).
	RowMats []*tensor.Matrix
	// Whole are matrices with no row alignment (rank-space moments, SVD
	// projection matrices).
	Whole []*tensor.Matrix
	// Blobs carries opaque bytes (INT8 codes and group scales).
	Blobs [][]byte
	// Sub nests the state a wrapped inner optimizer holds for the same
	// parameter (WeightQuantized).
	Sub *ParamState
}

// StateSaver exposes an optimizer's complete persistent state for
// checkpointing: CaptureParam returns the canonical state held for p (nil
// when none is — lazy allocation hasn't touched it, or the method keeps no
// state), deeply copied. There is no optimizer-level state: every random
// draw is keyed by the parameter it is for, so nothing is shared across
// parameters.
type StateSaver interface {
	CaptureParam(p *nn.Param) (*ParamState, error)
}

// StateLoader restores state captured by the matching StateSaver,
// allocating (or overwriting) the per-parameter state so the next Step
// continues bit-identically to the run that wrote the checkpoint.
type StateLoader interface {
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
// WeightQuantized — per parameter: Scalars [has quantized weight, its store
// count]; Blobs [codes, scales] when present; Sub nests the inner optimizer's
// state.

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
		out.Scalars[1] = q.Draws
		out.Blobs = [][]byte{int8Blob(q.Q.Codes), f32Blob(q.Q.Scales)}
	}
	return out, nil
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
		q = w.newWeight(p)
		if codes, scales := st.Blobs[0], st.Blobs[1]; len(codes) != len(q.Q.Codes) || len(scales) != 4*len(q.Q.Scales) {
			return fmt.Errorf("optim: %s: %d INT8 codes and %d scale bytes, want %d and %d",
				who, len(codes), len(scales), len(q.Q.Codes), 4*len(q.Q.Scales))
		}
		blobInt8(q.Q.Codes, st.Blobs[0])
		blobF32(q.Q.Scales, st.Blobs[1])
		q.Draws = st.Scalars[1]
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
