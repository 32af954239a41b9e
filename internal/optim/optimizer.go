// Package optim implements the optimizer zoo the paper compares against:
// SGD(+momentum), AdamW, Adam-mini, GaLore (SVD and random projection), Fira,
// Flora, plain low-rank factorization, LoRA, ReLoRA and DoRA, plus 8-bit
// optimizer-state variants and the warmup-cosine schedule used for all
// pre-training runs. The paper's own contribution (APOLLO / APOLLO-Mini)
// lives in internal/core and plugs into the same Optimizer interface.
package optim

import (
	"math"

	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// Optimizer updates parameters in place from their accumulated gradients.
// Implementations must be deterministic given their construction seed.
type Optimizer interface {
	// Name identifies the method in experiment tables.
	Name() string
	// Step consumes the gradients of ps and updates the weights. Gradients
	// are left untouched: callers zero them before the next accumulation,
	// and the training loop takes their norm after stepping. ps may be one
	// group of the list: for an OrderFree optimizer the training loop steps
	// each group nn.Model.BackwardRelease releases on a goroutine of its
	// own, one Step at a time, while the rest of backward runs.
	Step(ps []*nn.Param)
	// SetLR changes the learning rate (driven by the schedule).
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
	// StateBytes reports the resident optimizer-state footprint in bytes,
	// measured from the actually allocated state (not a formula) so the
	// memory tables are honest.
	StateBytes() int64
	// Checkpointable by type: the optimizer's memory is part of the
	// objective a run optimizes, so a member that could not save and resume
	// it would train a different run after every restart.
	StateSaver
	StateLoader
}

// Hyper carries the common hyperparameters. Zero values are replaced by the
// AdamW defaults used across the paper's experiments.
type Hyper struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
}

// WithDefaults is withDefaults for optimizers built on this package from
// outside it (internal/core).
func (h Hyper) WithDefaults() Hyper { return h.withDefaults() }

// withDefaults fills unset fields with the paper's defaults.
func (h Hyper) withDefaults() Hyper {
	if h.Beta1 == 0 { //apollo:exactfloat zero is the unset-field sentinel; defaults fill only untouched fields
		h.Beta1 = 0.9
	}
	if h.Beta2 == 0 { //apollo:exactfloat zero is the unset-field sentinel; defaults fill only untouched fields
		h.Beta2 = 0.999
	}
	if h.Eps == 0 { //apollo:exactfloat zero is the unset-field sentinel; defaults fill only untouched fields
		h.Eps = 1e-8
	}
	return h
}

// orientation captures how a weight matrix maps onto the paper's m×n
// convention (m ≤ n): channels always index the larger dimension.
type orientation struct {
	transposed bool // true when rows > cols, i.e. the matrix is stored n×m
	m, n       int  // m = min(rows, cols), n = max(rows, cols)
}

func orient(rows, cols int) orientation {
	if rows <= cols {
		return orientation{transposed: false, m: rows, n: cols}
	}
	return orientation{transposed: true, m: cols, n: rows}
}

// AdamDirection runs step t (1-based) of the bias-corrected AdamW moment
// update on m and v and writes the normalized direction m̂/(√v̂+ε) into out
// (which may alias g).
func AdamDirection(m, v, out, g *tensor.Matrix, h Hyper, t int) {
	b1 := float32(h.Beta1)
	b2 := float32(h.Beta2)
	c1 := float32(1 / (1 - pow(h.Beta1, t)))
	c2 := float32(1 / (1 - pow(h.Beta2, t)))
	eps := float32(h.Eps)
	md, vd, gd, od := m.Data, v.Data, g.Data, out.Data
	for i, gv := range gd {
		md[i] = b1*md[i] + (1-b1)*gv
		vd[i] = b2*vd[i] + (1-b2)*gv*gv
		mhat := md[i] * c1
		vhat := vd[i] * c2
		od[i] = mhat / (sqrt32(vhat) + eps)
	}
}

func pow(b float64, n int) float64 {
	return math.Pow(b, float64(n))
}

func sqrt32(x float32) float32 {
	if x <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(x)))
}

// DecayAndApply performs the decoupled-weight-decay AdamW parameter update:
// w ← w − lr·dir − lr·wd·w.
func DecayAndApply(p *nn.Param, dir *tensor.Matrix, lr, wd float64) {
	if wd != 0 { //apollo:exactfloat zero weight decay disables the term exactly
		tensor.ScaleInPlace(p.W, float32(1-lr*wd))
	}
	tensor.AxpyInPlace(p.W, float32(-lr), dir)
}
