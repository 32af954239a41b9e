package optim

import (
	"fmt"

	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// FactorizedMode selects which weight-factorization baseline to run. All
// four share the machinery: W is reparameterized through rank-r factors and
// only the factors receive AdamW updates. The chain rule gives the factor
// gradients directly from the dense dW produced by backprop (dA = s·Bᵀ·dW,
// dB = s·dW·Aᵀ), so the wrappers live entirely at the optimizer level and
// work with any model.
type FactorizedMode int

const (
	// ModeLowRank trains W = B·A from scratch with no frozen base — the
	// paper's "Low-Rank" pre-training baseline (Table 2), which collapses
	// at the 1B scale.
	ModeLowRank FactorizedMode = iota
	// ModeLoRA freezes the pretrained W0 and trains W = W0 + s·B·A.
	ModeLoRA
	// ModeReLoRA periodically merges the adapter into W0 and restarts it,
	// recovering high-rank updates from a sequence of low-rank ones.
	ModeReLoRA
	// ModeDoRA decomposes W into per-column magnitude and direction,
	// applying the adapter to the direction only (Liu et al., 2024a).
	ModeDoRA
)

// String implements fmt.Stringer.
func (m FactorizedMode) String() string {
	switch m {
	case ModeLowRank:
		return "Low-Rank"
	case ModeLoRA:
		return "LoRA"
	case ModeReLoRA:
		return "ReLoRA"
	case ModeDoRA:
		return "DoRA"
	default:
		return fmt.Sprintf("FactorizedMode(%d)", int(m))
	}
}

// FactorizedConfig parameterizes the factorized optimizers.
type FactorizedConfig struct {
	Mode       FactorizedMode
	Rank       int
	Alpha      float64 // adapter scaling s = Alpha/Rank (LoRA convention)
	MergeEvery int     // ReLoRA merge period
	Seed       uint64
}

func (c FactorizedConfig) withDefaults() FactorizedConfig {
	if c.Alpha == 0 { //apollo:exactfloat zero is the unset-field sentinel; defaults fill only untouched fields
		c.Alpha = float64(2 * c.Rank) // the common α = 2r heuristic
	}
	if c.MergeEvery == 0 {
		c.MergeEvery = 200
	}
	if c.Seed == 0 {
		c.Seed = 0x10A4
	}
	return c
}

// Factorized implements the four reparameterized baselines behind one
// Optimizer. Parameter p's factors are drawn from tensor.Mix(cfg.Seed, p.Name)
// and its k-th ReLoRA restart from tensor.Mix(cfg.Seed, p.Name, k).
type Factorized struct {
	Base
	cfg FactorizedConfig
}

// Scalar and slot indices of the Factorized declaration. Which optional
// slots exist is a constant of the mode, so the indices are too.
const (
	fSteps, fTA, fTB, fHasW0, fHasMag, fTM = 0, 1, 2, 3, 4, 5

	fA, fB             = 0, 1 // factors: b is out×r, a is r×in
	fMA, fVA, fMB, fVB = 2, 3, 4, 5
	fW0                = 6       // frozen base; absent for ModeLowRank (implicit zero)
	fMag, fMM, fVM     = 7, 8, 9 // DoRA per-column magnitudes (1×in) and their moments
)

// NewFactorized builds the wrapper. Canonical layout of a factorized
// parameter: Scalars [steps, adamA.t, adamB.t, hasW0, hasMag, adamM.t];
// Whole [a, b, adamA.m, adamA.v, adamB.m, adamB.v] (+ [w0] when
// frozen-base, + [mag, adamM.m, adamM.v] for DoRA) — everything the
// method must keep resident beyond the live weight. Matrices whose smaller
// dimension exceeds the rank are reparameterized; the rest is dense AdamW's.
func NewFactorized(h Hyper, cfg FactorizedConfig) *Factorized {
	cfg = cfg.withDefaults()
	if cfg.Rank < 1 {
		panic(fmt.Sprintf("optim: factorized rank %d", cfg.Rank))
	}
	r := cfg.Rank
	rIn := func(p *nn.Param) (int, int) { return r, p.W.Cols }
	outR := func(p *nn.Param) (int, int) { return p.W.Rows, r }
	oneIn := func(p *nn.Param) (int, int) { return 1, p.W.Cols }
	hasW0, hasMag := boolBit(cfg.Mode != ModeLowRank), boolBit(cfg.Mode == ModeDoRA)
	sc := Schema{
		Name: cfg.Mode.String(),
		Scalars: []Scalar{
			{Name: "steps"}, {Name: "adamA.t"}, {Name: "adamB.t"},
			{Name: "hasW0", Const: true, Value: hasW0}, {Name: "hasMag", Const: true, Value: hasMag},
			{Name: "adamM.t", Const: hasMag == 0},
		},
		Slots: []Slot{
			{Name: "a", Kind: Whole, Dims: rIn}, {Name: "b", Kind: Whole, Dims: outR},
			{Name: "adamA.m", Kind: Whole, Dims: rIn}, {Name: "adamA.v", Kind: Whole, Dims: rIn},
			{Name: "adamB.m", Kind: Whole, Dims: outR}, {Name: "adamB.v", Kind: Whole, Dims: outR},
		},
		Covers: func(p *nn.Param) bool { return p.Kind == nn.KindMatrix && min(p.W.Rows, p.W.Cols) > r },
	}
	if hasW0 == 1 {
		sc.Slots = append(sc.Slots, Slot{Name: "w0", Kind: Whole})
	}
	if hasMag == 1 {
		sc.Slots = append(sc.Slots, Slot{Name: "mag", Kind: Whole, Dims: oneIn},
			Slot{Name: "adamM.m", Kind: Whole, Dims: oneIn}, Slot{Name: "adamM.v", Kind: Whole, Dims: oneIn})
	}
	return &Factorized{Base: NewBase(sc, h, NewAdamW(h)), cfg: cfg}
}

// scale returns the adapter scaling factor s.
func (f *Factorized) scale() float32 {
	return float32(f.cfg.Alpha / float64(f.cfg.Rank))
}

// seed fills a freshly allocated state with what does not start at zero:
// the random factors, the frozen base and DoRA's magnitudes.
func (f *Factorized) seed(st *Entry, p *nn.Param) {
	out, in, r := p.W.Rows, p.W.Cols, f.cfg.Rank
	rng := tensor.NewRNG(tensor.Mix(f.cfg.Seed, p.Name))
	st.M[fA] = tensor.NewMatrixRand(r, in, 0.02, rng)
	if f.cfg.Mode == ModeLowRank {
		// Train W = B·A from scratch: random B too, otherwise W stays 0.
		st.M[fB] = tensor.NewMatrixRand(out, r, 0.02, rng)
	} else {
		st.M[fW0].CopyFrom(p.W)
	}
	if f.cfg.Mode == ModeDoRA {
		for j, n := range p.W.ColNorms() {
			st.M[fMag].Data[j] = float32(n)
		}
	}
}

// effective recomputes the materialized weight from the factor state.
func (f *Factorized) effective(st *Entry, w *tensor.Matrix) {
	s := f.scale()
	ba := tensor.MatMul(st.M[fB], st.M[fA])
	tensor.ScaleInPlace(ba, s)
	switch f.cfg.Mode {
	case ModeLowRank:
		w.CopyFrom(ba)
	case ModeDoRA: // W = mag ∘ (W0+sBA)/‖·‖_col
		v := tensor.Add(st.M[fW0], ba)
		norms := v.ColNorms()
		for j := range norms {
			if norms[j] < 1e-12 {
				norms[j] = 1e-12
			}
		}
		mag := st.M[fMag].Data
		for i := 0; i < w.Rows; i++ {
			vrow := v.Row(i)
			wrow := w.Row(i)
			for j := range wrow {
				wrow[j] = mag[j] * vrow[j] / float32(norms[j])
			}
		}
	default: // LoRA / ReLoRA
		w.CopyFrom(st.M[fW0])
		tensor.AddInPlace(w, ba)
	}
}

// Step implements Optimizer.
func (f *Factorized) Step(ps []*nn.Param) { f.Walk(ps, f.update) }

func (f *Factorized) update(p *nn.Param, st *Entry, fresh bool) {
	if fresh {
		f.seed(st, p)
		f.effective(st, p.W)
	}
	st.S[fSteps]++
	s := f.scale()
	dW := p.Grad

	var dV *tensor.Matrix
	if f.cfg.Mode == ModeDoRA {
		// DoRA: route dW through the magnitude/direction decomposition.
		mag := st.M[fMag].Data
		ba := tensor.MatMul(st.M[fB], st.M[fA])
		tensor.ScaleInPlace(ba, s)
		v := tensor.Add(st.M[fW0], ba)
		norms := v.ColNorms()
		dV = tensor.NewMatrix(dW.Rows, dW.Cols)
		dmag := tensor.NewMatrix(1, len(mag))
		for j := 0; j < dW.Cols; j++ {
			c := norms[j]
			if c < 1e-12 {
				c = 1e-12
			}
			var u float64
			for i := 0; i < dW.Rows; i++ {
				u += float64(dW.At(i, j)) * float64(v.At(i, j))
			}
			dmag.Set(0, j, float32(u/c))
			mOverC := float64(mag[j]) / c
			corr := u / (c * c)
			for i := 0; i < dW.Rows; i++ {
				dV.Set(i, j, float32(mOverC*(float64(dW.At(i, j))-float64(v.At(i, j))*corr)))
			}
		}
		dirM := dmag.Clone()
		st.Adam(fTM, fMM, fVM, dirM, dmag, f.h)
		for j := range mag {
			mag[j] -= float32(f.h.LR) * dirM.At(0, j)
		}
	} else {
		dV = dW
	}

	// Factor gradients: dB = s·dV·Aᵀ, dA = s·Bᵀ·dV.
	dB := tensor.MatMulT(dV, st.M[fA])
	tensor.ScaleInPlace(dB, s)
	dA := tensor.TMatMul(st.M[fB], dV)
	tensor.ScaleInPlace(dA, s)

	dirB := dB.Clone()
	st.Adam(fTB, fMB, fVB, dirB, dB, f.h)
	tensor.AxpyInPlace(st.M[fB], float32(-f.h.LR), dirB)
	dirA := dA.Clone()
	st.Adam(fTA, fMA, fVA, dirA, dA, f.h)
	tensor.AxpyInPlace(st.M[fA], float32(-f.h.LR), dirA)

	// ReLoRA merge-and-restart: fold the adapter into the base, redraw A,
	// zero B and both factors' moments and step counts.
	if f.cfg.Mode == ModeReLoRA && f.cfg.MergeEvery > 0 && st.S[fSteps]%uint64(f.cfg.MergeEvery) == 0 {
		ba := tensor.MatMul(st.M[fB], st.M[fA])
		tensor.ScaleInPlace(ba, s)
		tensor.AddInPlace(st.M[fW0], ba)
		restart := tensor.NewRNG(tensor.Mix(f.cfg.Seed, p.Name, st.S[fSteps]/uint64(f.cfg.MergeEvery)))
		st.M[fA] = tensor.NewMatrixRand(f.cfg.Rank, p.W.Cols, 0.02, restart)
		for _, i := range []int{fB, fMA, fVA, fMB, fVB} {
			st.M[i].Zero()
		}
		st.S[fTA], st.S[fTB] = 0, 0
	}

	f.effective(st, p.W)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
