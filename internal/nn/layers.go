package nn

import (
	"math"

	rt "apollo/internal/runtime"
	"apollo/internal/tensor"
)

// Linear is a bias-free fully connected layer y = x·Wᵀ with W stored out×in
// (the LLaMA convention, and the orientation the paper's m×n analysis
// assumes: channels live on the larger dimension).
type Linear struct {
	P *Param

	ws *workspace     // the owning Model's arena; nil for a stand-alone layer
	x  *tensor.Matrix // cached input for the backward pass
}

// NewLinear initializes W ∈ R^{out×in} with N(0, std²) entries.
func NewLinear(name string, in, out int, std float64, rng *tensor.RNG) *Linear {
	w := tensor.NewMatrixRand(out, in, std, rng)
	return &Linear{P: NewParam(name, KindMatrix, w)}
}

// Forward computes y = x·Wᵀ for x of shape N×in; y is kept for the
// backward. The kernel's transpose goes to the arena's weight-shaped
// scratch, the buffer Backward's dW already grows to W's size, so a forward
// adds no resident bytes to a training model. Backward reads x: where x is
// an arena transient, the owner points l.x at a rebuilt copy first.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.x = x
	y := l.ws.keep(x.Rows, l.P.W.Rows)
	tensor.MatMulTInto(y, x, l.P.W, l.ws.scratch(l.P.W.Rows, l.P.W.Cols).Data)
	return y
}

// Backward consumes dy (N×out), accumulates dW and returns dx (N×in).
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	// dW += dyᵀ·x  (out×in)
	dw := l.ws.scratch(l.P.W.Rows, l.P.W.Cols)
	tensor.TMatMulInto(dw, dy, l.x)
	tensor.AddInPlace(l.P.Grad, dw)
	// dx = dy·W    (N×in)
	dx := l.ws.matrix(dy.Rows, l.P.W.Cols)
	tensor.MatMulInto(dx, dy, l.P.W)
	return dx
}

// Embedding maps token ids to dense rows of a vocab×dim table.
type Embedding struct {
	P   *Param
	Dim int

	ws     *workspace
	tokens []int
}

// NewEmbedding initializes the table with N(0, std²) entries.
func NewEmbedding(name string, vocab, dim int, std float64, rng *tensor.RNG) *Embedding {
	w := tensor.NewMatrixRand(vocab, dim, std, rng)
	return &Embedding{P: NewParam(name, KindEmbedding, w), Dim: dim}
}

// Forward gathers rows for each token id.
func (e *Embedding) Forward(tokens []int) *tensor.Matrix {
	e.tokens = tokens
	out := e.ws.keep(len(tokens), e.Dim)
	rt.ForRange(len(tokens), 64, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			copy(out.Row(i), e.P.W.Row(tokens[i]))
		}
	})
	return out
}

// Backward scatters dy rows back into the gradient table.
func (e *Embedding) Backward(dy *tensor.Matrix) {
	for i, tok := range e.tokens {
		grow := e.P.Grad.Row(tok)
		drow := dy.Row(i)
		for j, v := range drow {
			grow[j] += v
		}
	}
}

// RMSNorm normalizes each row by its root-mean-square and applies a learned
// per-channel gain (no bias, no mean subtraction — the LLaMA variant).
type RMSNorm struct {
	P   *Param
	Eps float32

	ws  *workspace
	x   *tensor.Matrix
	inv []float32 // 1/rms per row
}

// NewRMSNorm creates a norm over dim channels with gain initialized to 1.
func NewRMSNorm(name string, dim int) *RMSNorm {
	w := tensor.NewMatrix(1, dim)
	w.Fill(1)
	return &RMSNorm{P: NewParam(name, KindVector, w), Eps: 1e-5}
}

// Forward computes y_ij = x_ij * inv_i * g_j. It keeps x and inv for the
// backward; y is an arena transient, which output rebuilds.
func (r *RMSNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	r.x = x
	r.inv = r.ws.keepFloats(x.Rows)
	out := r.ws.matrix(x.Rows, x.Cols)
	g := r.P.W.Row(0)
	dim := float64(x.Cols)
	rt.ForRange(x.Rows, 16, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			row := x.Row(i)
			ms := tensor.SqNormSlice(row) / dim
			inv := float32(1 / math.Sqrt(ms+float64(r.Eps)))
			r.inv[i] = inv
			scaleRow(out.Row(i), row, inv, g)
		}
	})
	return out
}

// output rebuilds the last Forward's output into an arena transient from the
// kept x and inv, bit for bit: the same scaleRow on the same operands. Call
// it before the gain's group is released, while g is still the forward's.
func (r *RMSNorm) output() *tensor.Matrix {
	out := r.ws.matrix(r.x.Rows, r.x.Cols)
	g := r.P.W.Row(0)
	rt.ForRange(out.Rows, 16, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			scaleRow(out.Row(i), r.x.Row(i), r.inv[i], g)
		}
	})
	return out
}

// scaleRow writes the norm's output row y_j = x_j·inv·g_j.
func scaleRow(y, x []float32, inv float32, g []float32) {
	for j, v := range x {
		y[j] = v * inv * g[j]
	}
}

// Backward accumulates the gain gradient and returns dx.
//
// With u = x·inv (the normalized row): dg_j += Σ_i dy_ij·u_ij and
// dx = inv·(g∘dy − u·mean_j(g∘dy∘u)).
func (r *RMSNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := r.ws.matrix(dy.Rows, dy.Cols)
	r.backwardInto(dx, dy)
	return dx
}

// backwardInto is Backward writing dx into caller-provided storage.
func (r *RMSNorm) backwardInto(dx, dy *tensor.Matrix) {
	x := r.x
	g := r.P.W.Row(0)
	dim := float64(x.Cols)

	// dg fans out over channels, so each dg_j still sums its rows in
	// ascending order; dx fans out over rows.
	dg := r.P.Grad.Row(0)
	rt.ForRange(x.Cols, 32, func(j0, j1 int) {
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			drow := dy.Row(i)
			inv := r.inv[i]
			for j := j0; j < j1; j++ {
				dg[j] += drow[j] * row[j] * inv
			}
		}
	})
	rt.ForRange(x.Rows, 16, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			row := x.Row(i)
			drow := dy.Row(i)
			inv := r.inv[i]
			var dot float64
			for j := range row {
				dot += float64(drow[j]) * float64(g[j]) * float64(row[j])
			}
			coef := float32(dot/dim) * inv * inv * inv
			orow := dx.Row(i)
			for j := range row {
				orow[j] = g[j]*drow[j]*inv - row[j]*coef
			}
		}
	})
}

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// silu is x·σ(x), the activation inside SwiGLU, and siluGrad its derivative
// σ(x)·(1 + x·(1−σ(x))); both take s = sigmoid(x) so one exp serves the two.
func silu(x, s float32) float32     { return x * s }
func siluGrad(x, s float32) float32 { return s * (1 + x*(1-s)) }

// SwiGLU is the LLaMA MLP: down( silu(gate(x)) ∘ up(x) ).
type SwiGLU struct {
	Gate, Up, Down *Linear

	ws             *workspace
	gateOut, upOut *tensor.Matrix
}

// NewSwiGLU builds the three projections for dim→hidden→dim.
func NewSwiGLU(prefix string, dim, hidden int, rng *tensor.RNG) *SwiGLU {
	std := 0.02
	return &SwiGLU{
		Gate: NewLinear(prefix+".gate", dim, hidden, std, rng),
		Up:   NewLinear(prefix+".up", dim, hidden, std, rng),
		Down: NewLinear(prefix+".down", hidden, dim, std, rng),
	}
}

// Forward applies the gated MLP. It keeps gate(x) and up(x); the gated
// product h is an arena transient, which Backward rebuilds.
func (m *SwiGLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	m.gateOut = m.Gate.Forward(x)
	m.upOut = m.Up.Forward(x)
	h := m.ws.matrix(x.Rows, m.gateOut.Cols)
	gate, up := m.gateOut.Data, m.upOut.Data
	rt.ForRange(len(h.Data), 1<<11, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			h.Data[i] = silu(gate[i], sigmoid(gate[i])) * up[i]
		}
	})
	return m.Down.Forward(h)
}

// Backward returns dx and accumulates all three weight gradients. It first
// rebuilds h with the forward's expression into the buffer that becomes
// dup, for Down's backward to read, and parks σ(gate) in dgate's, so the
// pass still takes one sigmoid per element.
func (m *SwiGLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dgate, dup := m.gradBuffers()
	return m.backwardInto(dgate, dup, dy)
}

// gradBuffers hands out the two hidden-wide transients backwardInto works
// in, which become dgate and dup.
func (m *SwiGLU) gradBuffers() (dgate, dup *tensor.Matrix) {
	return m.ws.matrix(m.gateOut.Rows, m.gateOut.Cols), m.ws.matrix(m.gateOut.Rows, m.gateOut.Cols)
}

// backwardInto is Backward working in caller-provided dgate and dup.
func (m *SwiGLU) backwardInto(dgate, dup, dy *tensor.Matrix) *tensor.Matrix {
	gate, up := m.gateOut.Data, m.upOut.Data
	rt.ForRange(len(gate), 1<<11, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			s := sigmoid(gate[i])
			dgate.Data[i], dup.Data[i] = s, silu(gate[i], s)*up[i]
		}
	})
	m.Down.x = dup
	dh := m.Down.Backward(dy)
	rt.ForRange(len(dh.Data), 1<<11, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			s := dgate.Data[i]
			dgate.Data[i] = dh.Data[i] * up[i] * siluGrad(gate[i], s)
			dup.Data[i] = dh.Data[i] * silu(gate[i], s)
		}
	})
	dx := m.Gate.Backward(dgate)
	tensor.AddInPlace(dx, m.Up.Backward(dup))
	return dx
}

// Params returns the MLP parameters in traversal order.
func (m *SwiGLU) Params() []*Param {
	return []*Param{m.Gate.P, m.Up.P, m.Down.P}
}
