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
// This file holds the canonical form, its row slicing/merging, and the
// hooks of the optimizers that keep their own state: the dense members, the
// 8-bit variants, Factorized and WeightQuantized. GaLore, Fira, Flora and
// APOLLO share one state declaration and therefore one CaptureParam /
// RestoreParam pair and one documented layout, in projected.go.
package optim

import (
	"encoding/binary"
	"fmt"
	"math"

	"apollo/internal/linalg"
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

// snapScalars flattens a projector snapshot (minus any SVD matrix) into the
// scalar channel: [seed, rng phase, projected dim, ready].
func snapScalars(s linalg.ProjectorSnap) []uint64 {
	return []uint64{s.Seed, s.RNG, uint64(s.M), boolBit(s.Ready)}
}

// snapFromScalars is the inverse of snapScalars; the SVD matrix, when one
// exists, travels separately in ParamState.Whole.
func snapFromScalars(sc []uint64) linalg.ProjectorSnap {
	return linalg.ProjectorSnap{Seed: sc[0], RNG: sc[1], M: int(sc[2]), Ready: sc[3] != 0}
}

// int8Blob / blobInt8 and f32Blob / blobF32 move quantized tensors through
// the opaque byte channel.
func int8Blob(v []int8) []byte {
	out := make([]byte, len(v))
	for i, c := range v {
		out[i] = byte(c)
	}
	return out
}

func blobInt8(b []byte) []int8 {
	out := make([]int8, len(b))
	for i, c := range b {
		out[i] = int8(c)
	}
	return out
}

func f32Blob(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(f))
	}
	return out
}

func blobF32(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("optim: float32 blob of %d bytes", len(b))
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// wantLayout validates a decoded state's component counts before indexing.
func wantLayout(st *ParamState, scalars, rowMats, whole, blobs int, who string) error {
	if st == nil {
		return fmt.Errorf("optim: %s: nil state", who)
	}
	if len(st.Scalars) != scalars || len(st.RowMats) != rowMats ||
		len(st.Whole) != whole || len(st.Blobs) != blobs {
		return fmt.Errorf("optim: %s: state layout %d/%d/%d/%d, want %d/%d/%d/%d",
			who, len(st.Scalars), len(st.RowMats), len(st.Whole), len(st.Blobs),
			scalars, rowMats, whole, blobs)
	}
	return nil
}

// wantShape validates one matrix of a decoded state.
func wantShape(m *tensor.Matrix, rows, cols int, who string) error {
	if m.Rows != rows || m.Cols != cols {
		return fmt.Errorf("optim: %s: state matrix %dx%d, want %dx%d", who, m.Rows, m.Cols, rows, cols)
	}
	return nil
}

// ---------------------------------------------------------------------------
// AdamW — layout: Scalars [t]; RowMats [m, v].

// CaptureGlobals implements StateSaver (AdamW keeps no global cursors).
func (a *AdamW) CaptureGlobals() ([]uint64, error) { return nil, nil }

// CaptureParam implements StateSaver.
func (a *AdamW) CaptureParam(p *nn.Param) (*ParamState, error) {
	st, ok := a.state[p]
	if !ok {
		return nil, nil
	}
	return &ParamState{
		Scalars: []uint64{uint64(st.t)},
		RowMats: []*tensor.Matrix{st.m.Clone(), st.v.Clone()},
	}, nil
}

// RestoreGlobals implements StateLoader.
func (a *AdamW) RestoreGlobals(gs []uint64) error {
	if len(gs) != 0 {
		return fmt.Errorf("optim: AdamW: %d global cursors, want 0", len(gs))
	}
	return nil
}

// RestoreParam implements StateLoader.
func (a *AdamW) RestoreParam(p *nn.Param, st *ParamState) error {
	if err := wantLayout(st, 1, 2, 0, 0, "AdamW"); err != nil {
		return err
	}
	for _, m := range st.RowMats {
		if err := wantShape(m, p.W.Rows, p.W.Cols, "AdamW "+p.Name); err != nil {
			return err
		}
	}
	a.state[p] = &adamState{m: st.RowMats[0].Clone(), v: st.RowMats[1].Clone(), t: int(st.Scalars[0])}
	a.buf[p] = tensor.NewMatrix(p.W.Rows, p.W.Cols)
	return nil
}

// ---------------------------------------------------------------------------
// SGD — layout: RowMats [velocity] (no state at all without momentum).

// CaptureGlobals implements StateSaver.
func (s *SGD) CaptureGlobals() ([]uint64, error) { return nil, nil }

// CaptureParam implements StateSaver.
func (s *SGD) CaptureParam(p *nn.Param) (*ParamState, error) {
	v, ok := s.vel[p]
	if !ok {
		return nil, nil
	}
	return &ParamState{RowMats: []*tensor.Matrix{v.Clone()}}, nil
}

// RestoreGlobals implements StateLoader.
func (s *SGD) RestoreGlobals(gs []uint64) error {
	if len(gs) != 0 {
		return fmt.Errorf("optim: SGD: %d global cursors, want 0", len(gs))
	}
	return nil
}

// RestoreParam implements StateLoader.
func (s *SGD) RestoreParam(p *nn.Param, st *ParamState) error {
	if s.Momentum == 0 { //apollo:exactfloat zero momentum is the exact disabled sentinel, never computed
		return fmt.Errorf("optim: SGD: checkpoint carries velocity but momentum is disabled")
	}
	if err := wantLayout(st, 0, 1, 0, 0, "SGD"); err != nil {
		return err
	}
	if err := wantShape(st.RowMats[0], p.W.Rows, p.W.Cols, "SGD "+p.Name); err != nil {
		return err
	}
	s.vel[p] = st.RowMats[0].Clone()
	return nil
}

// ---------------------------------------------------------------------------
// Adam-mini — layout: Scalars [t]; RowMats [m, v as a rows×1 column]
// (vector parameters keep their single shared block as a 1×1 column).

// CaptureGlobals implements StateSaver.
func (a *AdamMini) CaptureGlobals() ([]uint64, error) { return nil, nil }

// CaptureParam implements StateSaver.
func (a *AdamMini) CaptureParam(p *nn.Param) (*ParamState, error) {
	st, ok := a.state[p]
	if !ok {
		return nil, nil
	}
	vcol := tensor.NewMatrix(len(st.v), 1)
	copy(vcol.Data, st.v)
	return &ParamState{
		Scalars: []uint64{uint64(st.t)},
		RowMats: []*tensor.Matrix{st.m.Clone(), vcol},
	}, nil
}

// RestoreGlobals implements StateLoader.
func (a *AdamMini) RestoreGlobals(gs []uint64) error {
	if len(gs) != 0 {
		return fmt.Errorf("optim: Adam-mini: %d global cursors, want 0", len(gs))
	}
	return nil
}

// RestoreParam implements StateLoader.
func (a *AdamMini) RestoreParam(p *nn.Param, st *ParamState) error {
	if err := wantLayout(st, 1, 2, 0, 0, "Adam-mini"); err != nil {
		return err
	}
	blocks := p.W.Rows
	if p.Kind == nn.KindVector {
		blocks = 1
	}
	if err := wantShape(st.RowMats[0], p.W.Rows, p.W.Cols, "Adam-mini "+p.Name); err != nil {
		return err
	}
	if err := wantShape(st.RowMats[1], blocks, 1, "Adam-mini "+p.Name); err != nil {
		return err
	}
	v := make([]float32, blocks)
	copy(v, st.RowMats[1].Data)
	a.state[p] = &miniState{m: st.RowMats[0].Clone(), v: v, t: int(st.Scalars[0])}
	return nil
}

// ---------------------------------------------------------------------------
// 8-bit Adam — globals: [stochastic-rounding RNG phase]. Per parameter:
// Scalars [t]; Blobs [m codes, m scales, v codes, v scales]. INT8 groups
// straddle row boundaries, so the state is never row-split (the 8-bit
// variants are excluded from ZeRO sharding anyway — shared-RNG rounding).

// CaptureGlobals implements StateSaver.
func (a *Adam8bit) CaptureGlobals() ([]uint64, error) { return []uint64{a.rng.State()}, nil }

// CaptureParam implements StateSaver.
func (a *Adam8bit) CaptureParam(p *nn.Param) (*ParamState, error) {
	st, ok := a.state[p]
	if !ok {
		return nil, nil
	}
	return &ParamState{
		Scalars: []uint64{uint64(st.t)},
		Blobs:   tensor8Blobs(st.m, st.v),
	}, nil
}

// RestoreGlobals implements StateLoader.
func (a *Adam8bit) RestoreGlobals(gs []uint64) error {
	if len(gs) != 1 {
		return fmt.Errorf("optim: 8-bit Adam: %d global cursors, want 1", len(gs))
	}
	a.rng.SetState(gs[0])
	return nil
}

// RestoreParam implements StateLoader.
func (a *Adam8bit) RestoreParam(p *nn.Param, st *ParamState) error {
	if err := wantLayout(st, 1, 0, 0, 4, "8-bit Adam"); err != nil {
		return err
	}
	m, v, err := tensor8FromBlobs(st.Blobs, p.W.Rows, p.W.Cols, a.group, "8-bit Adam "+p.Name)
	if err != nil {
		return err
	}
	a.state[p] = &adam8State{m: m, v: v, t: int(st.Scalars[0])}
	return nil
}

// tensor8Blobs serializes a pair of INT8 tensors into the opaque channel.
func tensor8Blobs(m, v *quant.Tensor8) [][]byte {
	return [][]byte{int8Blob(m.Codes), f32Blob(m.Scales), int8Blob(v.Codes), f32Blob(v.Scales)}
}

// tensor8FromBlobs is the inverse of tensor8Blobs.
func tensor8FromBlobs(blobs [][]byte, rows, cols, group int, who string) (m, v *quant.Tensor8, err error) {
	decode := func(codes, scales []byte) (*quant.Tensor8, error) {
		t := quant.NewTensor8(rows, cols, group)
		if len(codes) != len(t.Codes) {
			return nil, fmt.Errorf("optim: %s: %d INT8 codes, want %d", who, len(codes), len(t.Codes))
		}
		sc, err := blobF32(scales)
		if err != nil {
			return nil, err
		}
		if len(sc) != len(t.Scales) {
			return nil, fmt.Errorf("optim: %s: %d group scales, want %d", who, len(sc), len(t.Scales))
		}
		copy(t.Codes, blobInt8(codes))
		copy(t.Scales, sc)
		return t, nil
	}
	if m, err = decode(blobs[0], blobs[1]); err != nil {
		return nil, nil, err
	}
	if v, err = decode(blobs[2], blobs[3]); err != nil {
		return nil, nil, err
	}
	return m, v, nil
}

// ---------------------------------------------------------------------------
// 8-bit GaLore — globals: [own RNG phase, dense 8-bit Adam RNG phase].
// Projected parameters: Scalars [t, since, proj seed, proj rng, proj m,
// proj ready]; Blobs [m codes, m scales, v codes, v scales]; Whole [SVD P]
// when ready. Dense fallback delegates to the inner 8-bit Adam.

// CaptureGlobals implements StateSaver.
func (g *GaLore8bit) CaptureGlobals() ([]uint64, error) {
	inner, err := g.dense.CaptureGlobals()
	if err != nil {
		return nil, err
	}
	return append([]uint64{g.rng.State()}, inner...), nil
}

// CaptureParam implements StateSaver.
func (g *GaLore8bit) CaptureParam(p *nn.Param) (*ParamState, error) {
	if !projects(p, g.cfg.Rank) {
		return g.dense.CaptureParam(p)
	}
	st, ok := g.states[p]
	if !ok {
		return nil, nil
	}
	snap := st.proj.Snapshot()
	out := &ParamState{
		Scalars: append([]uint64{uint64(st.t), uint64(st.since)}, snapScalars(snap)...),
		Blobs:   tensor8Blobs(st.m, st.v),
	}
	if snap.P != nil {
		out.Whole = append(out.Whole, snap.P)
	}
	return out, nil
}

// RestoreGlobals implements StateLoader.
func (g *GaLore8bit) RestoreGlobals(gs []uint64) error {
	if len(gs) != 2 {
		return fmt.Errorf("optim: 8-bit GaLore: %d global cursors, want 2", len(gs))
	}
	g.rng.SetState(gs[0])
	return g.dense.RestoreGlobals(gs[1:])
}

// RestoreParam implements StateLoader.
func (g *GaLore8bit) RestoreParam(p *nn.Param, st *ParamState) error {
	if !projects(p, g.cfg.Rank) {
		return g.dense.RestoreParam(p, st)
	}
	who := "8-bit GaLore " + p.Name
	if len(st.Scalars) != 6 {
		return fmt.Errorf("optim: %s: %d state scalars, want 6", who, len(st.Scalars))
	}
	snap := snapFromScalars(st.Scalars[2:])
	wantWhole := 0
	if g.cfg.Projection == linalg.SVDProjection && snap.Ready {
		wantWhole = 1
	}
	if err := wantLayout(st, 6, 0, wantWhole, 4, who); err != nil {
		return err
	}
	if wantWhole == 1 {
		snap.P = st.Whole[0]
	}
	o := orient(p.W.Rows, p.W.Cols)
	if err := wantProjectedDim(snap, o, who); err != nil {
		return err
	}
	proj := linalg.NewProjector(g.cfg.Projection, g.cfg.Rank, 0)
	if err := proj.RestoreSnapshot(snap); err != nil {
		return fmt.Errorf("optim: %s: %w", who, err)
	}
	m, v, err := tensor8FromBlobs(st.Blobs, g.cfg.Rank, o.n, g.group, who)
	if err != nil {
		return err
	}
	g.states[p] = &galore8State{proj: proj, m: m, v: v, t: int(st.Scalars[0]), o: o, since: int(st.Scalars[1])}
	return nil
}

// ---------------------------------------------------------------------------
// Factorized (Low-Rank / LoRA / ReLoRA / DoRA) — globals: [init/restart RNG
// phase]. Factorized parameters: Scalars [steps, adamA.t, adamB.t, hasW0,
// hasMag, adamM.t]; Whole [a, b, adamA.m, adamA.v, adamB.m, adamB.v]
// (+ [w0] when frozen-base, + [mag 1×in, adamM.m, adamM.v] for DoRA).
// Dense fallback delegates.

// CaptureGlobals implements StateSaver.
func (f *Factorized) CaptureGlobals() ([]uint64, error) { return []uint64{f.rng.State()}, nil }

// CaptureParam implements StateSaver.
func (f *Factorized) CaptureParam(p *nn.Param) (*ParamState, error) {
	if p.Kind != nn.KindMatrix || min(p.W.Rows, p.W.Cols) <= f.cfg.Rank {
		return f.dense.CaptureParam(p)
	}
	st, ok := f.states[p]
	if !ok {
		return nil, nil
	}
	adamMT := 0
	if st.adamM != nil {
		adamMT = st.adamM.t
	}
	out := &ParamState{
		Scalars: []uint64{
			uint64(st.steps), uint64(st.adamA.t), uint64(st.adamB.t),
			boolBit(st.w0 != nil), boolBit(st.mag != nil), uint64(adamMT),
		},
		Whole: []*tensor.Matrix{
			st.a.Clone(), st.b.Clone(),
			st.adamA.m.Clone(), st.adamA.v.Clone(),
			st.adamB.m.Clone(), st.adamB.v.Clone(),
		},
	}
	if st.w0 != nil {
		out.Whole = append(out.Whole, st.w0.Clone())
	}
	if st.mag != nil {
		mag := tensor.NewMatrix(1, len(st.mag))
		copy(mag.Data, st.mag)
		out.Whole = append(out.Whole, mag, st.adamM.m.Clone(), st.adamM.v.Clone())
	}
	return out, nil
}

// RestoreGlobals implements StateLoader.
func (f *Factorized) RestoreGlobals(gs []uint64) error {
	if len(gs) != 1 {
		return fmt.Errorf("optim: %s: %d global cursors, want 1", f.Name(), len(gs))
	}
	f.rng.SetState(gs[0])
	return nil
}

// RestoreParam implements StateLoader.
func (f *Factorized) RestoreParam(p *nn.Param, st *ParamState) error {
	if p.Kind != nn.KindMatrix || min(p.W.Rows, p.W.Cols) <= f.cfg.Rank {
		return f.dense.RestoreParam(p, st)
	}
	who := f.Name() + " " + p.Name
	if len(st.Scalars) != 6 {
		return fmt.Errorf("optim: %s: %d state scalars, want 6", who, len(st.Scalars))
	}
	hasW0, hasMag := st.Scalars[3] != 0, st.Scalars[4] != 0
	wantWhole := 6
	if hasW0 {
		wantWhole++
	}
	if hasMag {
		wantWhole += 3
	}
	if err := wantLayout(st, 6, 0, wantWhole, 0, who); err != nil {
		return err
	}
	out, in, r := p.W.Rows, p.W.Cols, f.cfg.Rank
	shapes := [][2]int{{r, in}, {out, r}, {r, in}, {r, in}, {out, r}, {out, r}}
	for i, s := range shapes {
		if err := wantShape(st.Whole[i], s[0], s[1], who); err != nil {
			return err
		}
	}
	fs := &factorState{
		a:     st.Whole[0].Clone(),
		b:     st.Whole[1].Clone(),
		adamA: &adamState{m: st.Whole[2].Clone(), v: st.Whole[3].Clone(), t: int(st.Scalars[1])},
		adamB: &adamState{m: st.Whole[4].Clone(), v: st.Whole[5].Clone(), t: int(st.Scalars[2])},
		steps: int(st.Scalars[0]),
	}
	at := 6
	if hasW0 {
		if err := wantShape(st.Whole[at], out, in, who); err != nil {
			return err
		}
		fs.w0 = st.Whole[at].Clone()
		at++
	}
	if hasMag {
		for i := 0; i < 3; i++ {
			if err := wantShape(st.Whole[at+i], 1, in, who); err != nil {
				return err
			}
		}
		fs.mag = append([]float32(nil), st.Whole[at].Data...)
		fs.adamM = &adamState{m: st.Whole[at+1].Clone(), v: st.Whole[at+2].Clone(), t: int(st.Scalars[5])}
	}
	f.states[p] = fs
	return nil
}

// ---------------------------------------------------------------------------
// WeightQuantized — globals: [own RNG phase] ++ inner globals. Per
// parameter: Scalars [has quantized weight, per-weight RNG phase];
// Blobs [codes, scales] when present; Sub nests the inner optimizer's state.

// CaptureGlobals implements StateSaver.
func (w *WeightQuantized) CaptureGlobals() ([]uint64, error) {
	saver, ok := w.inner.(StateSaver)
	if !ok {
		return nil, fmt.Errorf("optim: %s: inner optimizer %s is not checkpointable", w.Name(), w.inner.Name())
	}
	inner, err := saver.CaptureGlobals()
	if err != nil {
		return nil, err
	}
	return append([]uint64{w.rng.State()}, inner...), nil
}

// CaptureParam implements StateSaver.
func (w *WeightQuantized) CaptureParam(p *nn.Param) (*ParamState, error) {
	saver, ok := w.inner.(StateSaver)
	if !ok {
		return nil, fmt.Errorf("optim: %s: inner optimizer %s is not checkpointable", w.Name(), w.inner.Name())
	}
	sub, err := saver.CaptureParam(p)
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
	loader, ok := w.inner.(StateLoader)
	if !ok {
		return fmt.Errorf("optim: %s: inner optimizer %s is not checkpointable", w.Name(), w.inner.Name())
	}
	if len(gs) < 1 {
		return fmt.Errorf("optim: %s: missing global cursor", w.Name())
	}
	w.rng.SetState(gs[0])
	return loader.RestoreGlobals(gs[1:])
}

// RestoreParam implements StateLoader.
func (w *WeightQuantized) RestoreParam(p *nn.Param, st *ParamState) error {
	loader, ok := w.inner.(StateLoader)
	if !ok {
		return fmt.Errorf("optim: %s: inner optimizer %s is not checkpointable", w.Name(), w.inner.Name())
	}
	who := w.Name() + " " + p.Name
	if st == nil || len(st.Scalars) != 2 {
		return fmt.Errorf("optim: %s: malformed quantized-weight state", who)
	}
	if st.Scalars[0] != 0 {
		if len(st.Blobs) != 2 {
			return fmt.Errorf("optim: %s: %d blobs, want 2", who, len(st.Blobs))
		}
		q := quant.NewQuantizedWeight(p.W, w.group, 0)
		if len(st.Blobs[0]) != len(q.Q.Codes) {
			return fmt.Errorf("optim: %s: %d INT8 codes, want %d", who, len(st.Blobs[0]), len(q.Q.Codes))
		}
		sc, err := blobF32(st.Blobs[1])
		if err != nil {
			return err
		}
		if len(sc) != len(q.Q.Scales) {
			return fmt.Errorf("optim: %s: %d group scales, want %d", who, len(sc), len(q.Q.Scales))
		}
		copy(q.Q.Codes, blobInt8(st.Blobs[0]))
		copy(q.Q.Scales, sc)
		q.SetRNGState(st.Scalars[1])
		w.qw[p] = q
	}
	if st.Sub != nil {
		return loader.RestoreParam(p, st.Sub)
	}
	return nil
}
