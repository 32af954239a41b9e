// Package nn implements the neural-network substrate for the APOLLO
// reproduction: a LLaMA-style decoder-only transformer (RMSNorm, rotary
// position embeddings, SwiGLU MLP, untied LM head) with fully hand-written
// backward passes. No autodiff framework exists in the Go stdlib, so every
// layer implements an explicit Forward/Backward pair; gradient-check tests in
// this package validate each against central differences.
package nn

import (
	"fmt"
	"math"

	"apollo/internal/tensor"
)

// ParamKind classifies parameters for optimizers: low-rank projected
// optimizers (GaLore, Fira, APOLLO) treat only genuine 2-D weight matrices
// specially and fall back to dense AdamW for embeddings and norm gains,
// matching the reference implementations.
type ParamKind int

const (
	// KindMatrix marks 2-D projection-eligible weights (attention, MLP, head).
	KindMatrix ParamKind = iota
	// KindEmbedding marks token-embedding tables (dense rows, sparse grads).
	KindEmbedding
	// KindVector marks 1-D gains/biases (RMSNorm weights).
	KindVector
)

// String implements fmt.Stringer.
func (k ParamKind) String() string {
	switch k {
	case KindMatrix:
		return "matrix"
	case KindEmbedding:
		return "embedding"
	case KindVector:
		return "vector"
	default:
		return fmt.Sprintf("ParamKind(%d)", int(k))
	}
}

// Param is one trainable tensor together with its gradient accumulator.
type Param struct {
	Name string
	Kind ParamKind
	W    *tensor.Matrix
	// Grad is the gradient accumulator. It is resident — allocated with the
	// parameter and kept across passes — unless the model lends it
	// (Model.BackwardLend): then the header's storage is a piece of a ring
	// slab, valid from the group's borrow, just before the pass first writes
	// it, until GiveBack after the group's step returns; outside that window
	// Data is nil. ZeroGrad makes it resident again.
	Grad *tensor.Matrix
}

// NewParam allocates a parameter and its zeroed gradient.
func NewParam(name string, kind ParamKind, w *tensor.Matrix) *Param {
	return &Param{Name: name, Kind: kind, W: w, Grad: tensor.NewMatrix(w.Rows, w.Cols)}
}

// ZeroGrad clears the accumulated gradient, allocating it zeroed if a lent
// pass left it without storage.
func (p *Param) ZeroGrad() {
	if p.Grad.Data == nil {
		p.Grad.Data = make([]float32, p.Grad.NumEl())
		return
	}
	p.Grad.Zero()
}

// NumEl returns the parameter element count.
func (p *Param) NumEl() int { return p.W.NumEl() }

// ParamSet is an ordered collection of parameters (order is the traversal
// order of the model, stable across runs).
type ParamSet struct {
	list []*Param
}

// Add appends params to the set.
func (s *ParamSet) Add(ps ...*Param) {
	s.list = append(s.list, ps...)
}

// List returns the ordered parameters.
func (s *ParamSet) List() []*Param { return s.list }

// ZeroGrad clears all gradients.
func (s *ParamSet) ZeroGrad() {
	for _, p := range s.list {
		p.ZeroGrad()
	}
}

// FreeGrads releases every gradient accumulator, halving a model's resident
// footprint for inference-only use (the evaluation service's open snapshots
// never run a backward pass). After the call any gradient-touching operation
// (Backward, ZeroGrad, ClipGradNorm) panics on the nil matrices — the crash
// is deliberate: training a model that was declared eval-only is a bug, not
// a state to limp through.
func (s *ParamSet) FreeGrads() {
	for _, p := range s.list {
		p.Grad = nil
	}
}

// NumParams returns the total trainable element count.
func (s *ParamSet) NumParams() int {
	total := 0
	for _, p := range s.list {
		total += p.NumEl()
	}
	return total
}

// GradNorm returns the global ℓ2 norm over all gradients.
func (s *ParamSet) GradNorm() float64 {
	var sq float64
	for _, p := range s.list {
		sq += p.Grad.SqNorm()
	}
	return math.Sqrt(sq)
}

// ClipGradNorm rescales all gradients so the global norm is at most maxNorm;
// it returns the pre-clip norm.
func (s *ParamSet) ClipGradNorm(maxNorm float64) float64 {
	norm := s.GradNorm()
	if maxNorm > 0 && norm > maxNorm {
		scale := float32(maxNorm / (norm + 1e-12))
		for _, p := range s.list {
			tensor.ScaleInPlace(p.Grad, scale)
		}
	}
	return norm
}

// ByName returns the first parameter with the given name, or nil.
func (s *ParamSet) ByName(name string) *Param {
	for _, p := range s.list {
		if p.Name == name {
			return p
		}
	}
	return nil
}
