// The per-parameter state table. An optimizer says once what it keeps for a
// parameter — a Schema: scalar counters, named slots with their dimensions
// and element kind, optionally a projector, and whether its update may be
// cut along parameter rows — and every other view of that state is derived
// here: first-touch allocation, StateBytes, the StateIntrospector answers
// ZeRO partitions by (shard.go), and the canonical CaptureParam /
// RestoreParam layout (checkpoint.go), where everything a file supplies is
// checked against the declaration before anything is cloned or sized. A
// member of the zoo is then a Schema plus its per-parameter update; the walk
// that joins the two is Base's (base.go).
package optim

import (
	"fmt"

	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/quant"
	"apollo/internal/tensor"
)

// SlotKind is how a slot's elements are stored, which fixes the channel of
// ParamState it travels in.
type SlotKind int

const (
	// RowAligned is an fp32 matrix whose rows align 1:1 with the parameter's
	// rows (ParamState.RowMats) — the only kind ZeRO may cut.
	RowAligned SlotKind = iota
	// Whole is an fp32 matrix with no row alignment (ParamState.Whole).
	Whole
	// Int8 is a group-quantized tensor: INT8 codes plus one fp32 scale per
	// quant.DefaultGroupSize values (two ParamState.Blobs: codes, scales).
	Int8
)

// Slot declares one tensor of per-parameter state.
type Slot struct {
	Name string
	Kind SlotKind
	// Dims gives the slot's shape for p under the optimizer's resolved
	// configuration; nil means the parameter's own shape.
	Dims func(p *nn.Param) (rows, cols int)
}

// Scalar declares one persisted uint64: a step counter, or float64 bits.
type Scalar struct {
	Name string
	// Counted scalars cost one fp32 state element in StateBytes and
	// StateElemsFor — the limiter's previous norm, half of Table 1's "+2".
	Counted bool
	// Const scalars never change from Value: layout flags that are constants
	// of the configuration. Restore refuses a file that disagrees.
	Const bool
	Value uint64 // the value at first touch
}

// Projection declares that every covered parameter carries a projector. The
// table accounts for it (r·m persisted floats for SVD, one seed otherwise),
// appends it to the canonical layout — Scalars [… seed, rng phase, projected
// dim, ready]; Whole [… the r×m SVD matrix once built; a random projection is
// regenerated from its seed and never persisted] — and rebuilds it on
// restore. Its seed is the owner's to draw, at first touch.
type Projection struct {
	Kind linalg.ProjectionKind
	Rank int
}

// Schema is the one declaration of an optimizer's per-parameter state.
type Schema struct {
	Name    string // the optimizer's name; prefixes restore errors
	Scalars []Scalar
	Slots   []Slot
	Proj    *Projection
	// Covers says which parameters this schema describes (nil: all); the
	// rest belong to the table's fallback.
	Covers func(p *nn.Param) bool
	// RowSplittable says whether Step's update for a covered parameter is
	// element- or row-wise, so ownership may be split across row ranges with
	// bit-identical results (nil: never). It is a property of the update,
	// not of the slots: StructuredAdamW's moments are row-aligned but its
	// channel norms couple the rows.
	RowSplittable func(p *nn.Param) bool
	// Redraws says the update draws from the member's global random stream
	// (NewBase's rng) after a parameter's first touch — rounding noise every
	// step, a restart's fresh factors — so which parameter gets which draw
	// depends on the order they are stepped in: the member is not OrderFree.
	Redraws bool
}

// Entry is the state held for one parameter, in declaration order.
type Entry struct {
	S    []uint64          // scalars
	M    []*tensor.Matrix  // fp32 slots
	Q    []*quant.Tensor8  // INT8 slots
	Proj *linalg.Projector // when the schema declares one
}

// Adam runs one AdamW moment update by g on the fp32 slots m and v, counting
// the step in scalar t, and writes the normalized direction into out (which
// may alias g).
func (e *Entry) Adam(t, m, v int, out, g *tensor.Matrix, h Hyper) {
	e.S[t]++
	AdamDirection(e.M[m], e.M[v], out, g, h, int(e.S[t]))
}

// StateTable holds the entries of one optimizer and implements, from its
// schema alone, Optimizer.StateBytes, StateIntrospector, StateSaver and
// StateLoader. NewBase builds it; optimizers embed it through their Base.
type StateTable struct {
	schema   Schema
	rng      *tensor.RNG // the random stream the owner draws from (nil: none); its phase is the global cursor
	fallback *StateTable // holds the parameters the schema does not cover
	entries  map[*nn.Param]*Entry
}

func (sc *Schema) covers(p *nn.Param) bool { return sc.Covers == nil || sc.Covers(p) }

func (sl *Slot) dims(p *nn.Param) (rows, cols int) {
	if sl.Dims == nil {
		return p.W.Rows, p.W.Cols
	}
	return sl.Dims(p)
}

// State returns the entry of a covered parameter, allocating it — slots
// zeroed, scalars at their declared values — at first touch, which fresh
// reports so the owner can seed what does not start at zero.
func (t *StateTable) State(p *nn.Param) (e *Entry, fresh bool) {
	if e, ok := t.entries[p]; ok {
		return e, false
	}
	e = t.alloc(p)
	t.entries[p] = e
	return e, true
}

// alloc builds p's entry as the schema declares it; every entry, first-touch
// or restored, is sized here.
func (t *StateTable) alloc(p *nn.Param) *Entry {
	e := &Entry{}
	for _, sc := range t.schema.Scalars {
		e.S = append(e.S, sc.Value)
	}
	for i := range t.schema.Slots {
		sl := &t.schema.Slots[i]
		rows, cols := sl.dims(p)
		if sl.Kind == Int8 {
			e.Q = append(e.Q, quant.NewTensor8(rows, cols, quant.DefaultGroupSize))
		} else {
			e.M = append(e.M, tensor.NewMatrix(rows, cols))
		}
	}
	return e
}

// StateBytes implements Optimizer, measured from the allocated state: the
// sum of StateBytesFor over every parameter touched so far.
func (t *StateTable) StateBytes() int64 {
	var total int64
	if t.fallback != nil {
		total = t.fallback.StateBytes()
	}
	for _, e := range t.entries { //apollo:orderfree exact integer sum; iteration order cannot reach the result
		total += t.entryBytes(e)
	}
	return total
}

// StateBytesFor implements StateIntrospector: what is resident for p now.
func (t *StateTable) StateBytesFor(p *nn.Param) int64 {
	if !t.schema.covers(p) {
		if t.fallback == nil {
			return 0
		}
		return t.fallback.StateBytesFor(p)
	}
	e, ok := t.entries[p]
	if !ok {
		return 0
	}
	return t.entryBytes(e)
}

// entryBytes measures one entry: slots, counted scalars, and what the
// projector must keep resident.
func (t *StateTable) entryBytes(e *Entry) int64 {
	var total int64
	for _, sc := range t.schema.Scalars {
		if sc.Counted {
			total += 4
		}
	}
	for _, m := range e.M {
		total += 4 * int64(m.NumEl())
	}
	for _, q := range e.Q {
		total += q.Bytes()
	}
	if e.Proj != nil {
		total += 4 * int64(e.Proj.StateFloats())
	}
	return total
}

// StateElemsFor implements StateIntrospector: the elements State would
// allocate for p, plus the paper's accounting of what is not a slot — one
// per counted scalar, and r·m for a persisted SVD projection or 1 for a
// random projection's seed.
func (t *StateTable) StateElemsFor(p *nn.Param) int64 {
	if !t.schema.covers(p) {
		if t.fallback == nil {
			return 0
		}
		return t.fallback.StateElemsFor(p)
	}
	var elems int64
	for _, sc := range t.schema.Scalars {
		if sc.Counted {
			elems++
		}
	}
	for i := range t.schema.Slots {
		rows, cols := t.schema.Slots[i].dims(p)
		n := int64(rows) * int64(cols)
		elems += n
		if t.schema.Slots[i].Kind == Int8 {
			elems += (n + quant.DefaultGroupSize - 1) / quant.DefaultGroupSize
		}
	}
	if pr := t.schema.Proj; pr != nil {
		if pr.Kind == linalg.SVDProjection {
			elems += int64(pr.Rank) * int64(orient(p.W.Rows, p.W.Cols).m)
		} else {
			elems++
		}
	}
	return elems
}

// RowSplittable implements StateIntrospector from the schema's declaration.
func (t *StateTable) RowSplittable(p *nn.Param) bool {
	if !t.schema.covers(p) {
		return t.fallback != nil && t.fallback.RowSplittable(p)
	}
	return t.schema.RowSplittable != nil && t.schema.RowSplittable(p)
}

// CaptureGlobals implements StateSaver: the owner's RNG phase, then the
// fallback's cursors.
func (t *StateTable) CaptureGlobals() ([]uint64, error) {
	var gs []uint64
	if t.rng != nil {
		gs = append(gs, t.rng.State())
	}
	if t.fallback != nil {
		inner, err := t.fallback.CaptureGlobals()
		if err != nil {
			return nil, err
		}
		gs = append(gs, inner...)
	}
	return gs, nil
}

// RestoreGlobals implements StateLoader.
func (t *StateTable) RestoreGlobals(gs []uint64) error {
	own := 0
	if t.rng != nil {
		own = 1
	}
	if len(gs) < own || (t.fallback == nil && len(gs) != own) {
		return fmt.Errorf("optim: %s: %d global cursors, want %d", t.schema.Name, len(gs), own)
	}
	if t.fallback != nil {
		if err := t.fallback.RestoreGlobals(gs[own:]); err != nil {
			return err
		}
	}
	if own == 1 {
		t.rng.SetState(gs[0])
	}
	return nil
}

// CaptureParam implements StateSaver with the canonical layout the schema
// spells out: Scalars in declaration order (then the projector's four);
// RowMats, Whole and Blobs each in slot order (an INT8 slot is two blobs,
// codes then scales; a built SVD projection is the last Whole matrix).
func (t *StateTable) CaptureParam(p *nn.Param) (*ParamState, error) {
	if !t.schema.covers(p) {
		if t.fallback == nil {
			return nil, nil
		}
		return t.fallback.CaptureParam(p)
	}
	e, ok := t.entries[p]
	if !ok {
		return nil, nil
	}
	out := &ParamState{Scalars: append([]uint64(nil), e.S...)}
	m, q := 0, 0
	for _, sl := range t.schema.Slots {
		switch sl.Kind {
		case RowAligned:
			out.RowMats = append(out.RowMats, e.M[m].Clone())
			m++
		case Whole:
			out.Whole = append(out.Whole, e.M[m].Clone())
			m++
		case Int8:
			out.Blobs = append(out.Blobs, int8Blob(e.Q[q].Codes), f32Blob(e.Q[q].Scales))
			q++
		}
	}
	if t.schema.Proj != nil {
		snap := e.Proj.Snapshot()
		out.Scalars = append(out.Scalars, snap.Seed, snap.RNG, uint64(snap.M), boolBit(snap.Ready))
		if snap.P != nil {
			out.Whole = append(out.Whole, snap.P)
		}
	}
	return out, nil
}

// RestoreParam implements StateLoader. Every count, shape and length the
// file supplies is validated against the schema's answer for p first; only
// then is an entry allocated — by the declaration, never by the file — and
// the file's contents copied in.
func (t *StateTable) RestoreParam(p *nn.Param, st *ParamState) error {
	if !t.schema.covers(p) {
		if t.fallback == nil {
			return fmt.Errorf("optim: %s: keeps no state for %s", t.schema.Name, p.Name)
		}
		return t.fallback.RestoreParam(p, st)
	}
	sc := &t.schema
	who := sc.Name + " " + p.Name
	var want [3]int // slots per kind
	for _, sl := range sc.Slots {
		want[sl.Kind]++
	}
	scalars, whole := len(sc.Scalars), want[Whole]
	if scalars+len(sc.Slots) == 0 {
		return fmt.Errorf("optim: %s: the optimizer keeps no state but the checkpoint carries some", who)
	}
	var snap linalg.ProjectorSnap
	if sc.Proj != nil {
		scalars += 4
		if st != nil && len(st.Scalars) == scalars {
			ps := st.Scalars[scalars-4:]
			snap = linalg.ProjectorSnap{Seed: ps[0], RNG: ps[1], M: int(ps[2]), Ready: ps[3] != 0}
			if o := orient(p.W.Rows, p.W.Cols); ps[3] > 1 || (ps[2] != uint64(o.m) && (snap.Ready || ps[2] != 0)) {
				// RestoreSnapshot regenerates a random projection at r×M, so an
				// unchecked M is both a file-controlled allocation size and a
				// shape the next Step multiplies against the gradient.
				return fmt.Errorf("optim: %s: state projects dimension %d (ready flag %d), parameter has %d", who, ps[2], ps[3], o.m)
			}
			if sc.Proj.Kind == linalg.SVDProjection && snap.Ready {
				whole++
			}
		}
	}
	if st == nil || st.Sub != nil || len(st.Scalars) != scalars || len(st.RowMats) != want[RowAligned] ||
		len(st.Whole) != whole || len(st.Blobs) != 2*want[Int8] {
		return fmt.Errorf("optim: %s: state layout does not match the declaration (want %d scalars, %d row-aligned, %d whole, %d blobs, no nested state)",
			who, scalars, want[RowAligned], whole, 2*want[Int8])
	}
	for i, d := range sc.Scalars {
		if d.Const && st.Scalars[i] != d.Value {
			return fmt.Errorf("optim: %s: scalar %s is %d, this configuration fixes it at %d", who, d.Name, st.Scalars[i], d.Value)
		}
	}
	var fp32 []*tensor.Matrix // the file's fp32 slots, in declaration order
	rowAt, wholeAt, blobAt := 0, 0, 0
	for i := range sc.Slots {
		sl := &sc.Slots[i]
		rows, cols := sl.dims(p)
		switch sl.Kind {
		case RowAligned:
			fp32, rowAt = append(fp32, st.RowMats[rowAt]), rowAt+1
		case Whole:
			fp32, wholeAt = append(fp32, st.Whole[wholeAt]), wholeAt+1
		case Int8:
			n := rows * cols
			groups := (n + quant.DefaultGroupSize - 1) / quant.DefaultGroupSize
			if codes, scales := st.Blobs[blobAt], st.Blobs[blobAt+1]; len(codes) != n || len(scales) != 4*groups {
				return fmt.Errorf("optim: %s: slot %s has %d INT8 codes and %d scale bytes, want %d and %d",
					who, sl.Name, len(codes), len(scales), n, 4*groups)
			}
			blobAt += 2
			continue
		}
		if m := fp32[len(fp32)-1]; m == nil || m.Rows != rows || m.Cols != cols || len(m.Data) != rows*cols {
			return fmt.Errorf("optim: %s: slot %s does not have the declared shape %dx%d", who, sl.Name, rows, cols)
		}
	}
	var proj *linalg.Projector
	if sc.Proj != nil {
		if whole > want[Whole] {
			snap.P = st.Whole[whole-1]
			if snap.P == nil || len(snap.P.Data) != snap.P.Rows*snap.P.Cols {
				return fmt.Errorf("optim: %s: malformed SVD projection", who)
			}
		}
		proj = linalg.NewProjector(sc.Proj.Kind, sc.Proj.Rank, 0)
		if err := proj.RestoreSnapshot(snap); err != nil {
			return fmt.Errorf("optim: %s: %w", who, err)
		}
	}

	e := t.alloc(p)
	e.Proj = proj
	copy(e.S, st.Scalars)
	for i, m := range fp32 {
		e.M[i].CopyFrom(m)
	}
	for i, q := range e.Q {
		blobInt8(q.Codes, st.Blobs[2*i])
		blobF32(q.Scales, st.Blobs[2*i+1])
	}
	t.entries[p] = e
	return nil
}
