package nn

import (
	"fmt"
	"math"

	rt "apollo/internal/runtime"
	"apollo/internal/tensor"
)

// ropeTable caches cos/sin rotation factors for positions [0, maxSeq) and a
// head dimension. RoPE rotates consecutive channel pairs (2i, 2i+1) of q and
// k by position-dependent angles θ_{p,i} = p · base^{−2i/headDim}.
type ropeTable struct {
	cos, sin []float32 // maxSeq × headDim/2, row-major
	headDim  int
}

func newRopeTable(maxSeq, headDim int) *ropeTable {
	const base = 10000.0
	half := headDim / 2
	t := &ropeTable{
		cos:     make([]float32, maxSeq*half),
		sin:     make([]float32, maxSeq*half),
		headDim: headDim,
	}
	for p := 0; p < maxSeq; p++ {
		for i := 0; i < half; i++ {
			theta := float64(p) * math.Pow(base, -2*float64(i)/float64(headDim))
			t.cos[p*half+i] = float32(math.Cos(theta))
			t.sin[p*half+i] = float32(math.Sin(theta))
		}
	}
	return t
}

// apply rotates the head vector x (length headDim) at position p in place.
// sign=+1 applies RoPE; sign=−1 applies the inverse rotation (used in the
// backward pass, since rotations are orthonormal).
func (t *ropeTable) apply(x []float32, p int, sign float32) {
	half := t.headDim / 2
	for i := 0; i < half; i++ {
		c := t.cos[p*half+i]
		s := t.sin[p*half+i] * sign
		a, b := x[2*i], x[2*i+1]
		x[2*i] = a*c - b*s
		x[2*i+1] = a*s + b*c
	}
}

// Attention is causal multi-head self-attention with rotary position
// embeddings and bias-free projections.
type Attention struct {
	Wq, Wk, Wv, Wo *Linear
	Heads          int
	HeadDim        int

	rope *ropeTable
	ws   *workspace

	// forward caches
	q, k, v *tensor.Matrix // post-RoPE for q/k; k and v N×dim, q one row per query position
	ctx     *tensor.Matrix // concatenated head outputs, one row per query position
	batch   int
	seq     int
}

// NewAttention builds the four projections for a model of width dim split
// into heads.
func NewAttention(prefix string, dim, heads, maxSeq int, rng *tensor.RNG) *Attention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: dim %d not divisible by heads %d", dim, heads))
	}
	hd := dim / heads
	if hd%2 != 0 {
		panic(fmt.Sprintf("nn: head dim %d must be even for RoPE", hd))
	}
	std := 0.02
	return &Attention{
		Wq:      NewLinear(prefix+".wq", dim, dim, std, rng),
		Wk:      NewLinear(prefix+".wk", dim, dim, std, rng),
		Wv:      NewLinear(prefix+".wv", dim, dim, std, rng),
		Wo:      NewLinear(prefix+".wo", dim, dim, std, rng),
		Heads:   heads,
		HeadDim: hd,
		rope:    newRopeTable(maxSeq, hd),
	}
}

// head returns the sub-slice of row n belonging to head h.
func head(m *tensor.Matrix, n, h, hd int) []float32 {
	row := m.Row(n)
	return row[h*hd : (h+1)*hd]
}

// Forward runs causal attention over a batch of B sequences of length T
// flattened to x of shape (B·T)×dim and returns the outputs of the query
// positions from … T−1 of each sequence, B·(T−from) rows: keys and values
// cover every position, queries, scores, context and the output projection
// the query positions alone. At from > 0 x is shrunk to the query rows
// (keepTail) once the keys and values have read it, and the pass cannot be
// backpropagated.
//
// No probability outlives the pass: each (batch, head) task scores its query
// positions one at a time into its own row of an arena transient, and
// Backward rebuilds every row from the kept post-RoPE q and k.
func (a *Attention) Forward(x *tensor.Matrix, batch, seq, from int) *tensor.Matrix {
	if x.Rows != batch*seq {
		panic(fmt.Sprintf("nn: attention rows %d != batch %d × seq %d", x.Rows, batch, seq))
	}
	a.batch, a.seq = batch, seq
	a.k = a.Wk.Forward(x)
	a.v = a.Wv.Forward(x)
	a.q = a.Wq.Forward(keepTail(x, seq, from))

	hd, tail := a.HeadDim, seq-from
	// RoPE on q and k, position = index within the sequence; query row
	// b·tail+p−from holds position p of sequence b.
	rt.ForRange(batch*seq, 8, func(n0, n1 int) {
		for n := n0; n < n1; n++ {
			p := n % seq
			for h := 0; h < a.Heads; h++ {
				if p >= from {
					a.rope.apply(head(a.q, n/seq*tail+p-from, h, hd), p, 1)
				}
				a.rope.apply(head(a.k, n, h, hd), p, 1)
			}
		}
	})

	a.ctx = a.ws.keep(batch*tail, x.Cols)
	a.ctx.Zero()
	invSqrt := float32(1 / math.Sqrt(float64(hd)))

	// One task per (batch, head) pair, each with one probability row.
	bh := batch * a.Heads
	rows := a.ws.matrix(bh, seq)
	rt.ForRange(bh, 1, func(t0, t1 int) {
		for bhIdx := t0; bhIdx < t1; bhIdx++ {
			b := bhIdx / a.Heads
			h := bhIdx % a.Heads
			for t := from; t < seq; t++ {
				qv := head(a.q, b*tail+t-from, h, hd)
				prow := rows.Row(bhIdx)[:t+1]
				for u := range prow {
					prow[u] = tensor.Dot(qv, head(a.k, b*seq+u, h, hd)) * invSqrt
				}
				tensor.SoftmaxInPlace(prow)
				cv := head(a.ctx, b*tail+t-from, h, hd)
				for u, p := range prow {
					vv := head(a.v, b*seq+u, h, hd)
					for d := 0; d < hd; d++ {
						cv[d] += p * vv[d]
					}
				}
			}
		}
	})
	return a.Wo.Forward(a.ctx)
}

// Backward consumes dy (N×dim), accumulates all projection gradients, and
// returns dx.
func (a *Attention) Backward(dy *tensor.Matrix) *tensor.Matrix {
	batch, seq, hd := a.batch, a.seq, a.HeadDim
	dctx := a.Wo.Backward(dy)

	dq := a.ws.matrix(a.q.Rows, a.q.Cols)
	dk := a.ws.matrix(a.k.Rows, a.k.Cols)
	dv := a.ws.matrix(a.v.Rows, a.v.Cols)
	dq.Zero()
	dk.Zero()
	dv.Zero()
	invSqrt := float32(1 / math.Sqrt(float64(hd)))

	bh := batch * a.Heads
	scratch := a.ws.matrix(bh, 2*seq) // a probability and a dattn row per task
	rt.ForRange(bh, 1, func(t0, t1 int) {
		for bhIdx := t0; bhIdx < t1; bhIdx++ {
			b := bhIdx / a.Heads
			h := bhIdx % a.Heads
			task := scratch.Row(bhIdx)
			for t := 0; t < seq; t++ {
				prow, dattn := task[:t+1], task[seq:seq+t+1]
				qv := head(a.q, b*seq+t, h, hd)
				dcv := head(dctx, b*seq+t, h, hd)
				// Rebuild the forward's probability row with its calls on
				// the same operands, so every bit is the forward's:
				// s_u = q_t·k_u·invSqrt, then softmax. dattn_u = dctx·v_u.
				for u := range prow {
					prow[u] = tensor.Dot(qv, head(a.k, b*seq+u, h, hd)) * invSqrt
					dattn[u] = tensor.Dot(dcv, head(a.v, b*seq+u, h, hd))
				}
				tensor.SoftmaxInPlace(prow)
				// dv_u += p_u·dctx ; mix = Σ_u p_u dattn_u
				var mix float64
				for u, p := range prow {
					dvv := head(dv, b*seq+u, h, hd)
					for d := 0; d < hd; d++ {
						dvv[d] += p * dcv[d]
					}
					mix += float64(p) * float64(dattn[u])
				}
				// softmax backward ds_u = p_u (dattn_u − mix), then
				// dq_t += Σ_u ds_u·k_u·invSqrt ; dk_u += ds_u·q_t·invSqrt
				dqv := head(dq, b*seq+t, h, hd)
				m := float32(mix)
				for u, p := range prow {
					s := p * (dattn[u] - m) * invSqrt
					kv := head(a.k, b*seq+u, h, hd)
					dkv := head(dk, b*seq+u, h, hd)
					for d := 0; d < hd; d++ {
						dqv[d] += s * kv[d]
						dkv[d] += s * qv[d]
					}
				}
			}
		}
	})

	// Undo RoPE on the gradients (inverse rotation).
	rt.ForRange(batch*seq, 8, func(n0, n1 int) {
		for n := n0; n < n1; n++ {
			p := n % seq
			for h := 0; h < a.Heads; h++ {
				a.rope.apply(head(dq, n, h, hd), p, -1)
				a.rope.apply(head(dk, n, h, hd), p, -1)
			}
		}
	})

	// Wk's and Wv's input gradients share one transient position: each is
	// handed back once it is added.
	dx := a.Wq.Backward(dq)
	mark := a.ws.mark()
	tensor.AddInPlace(dx, a.Wk.Backward(dk))
	a.ws.release(mark)
	tensor.AddInPlace(dx, a.Wv.Backward(dv))
	a.ws.release(mark)
	return dx
}

// Params returns the attention parameters in traversal order.
func (a *Attention) Params() []*Param {
	return []*Param{a.Wq.P, a.Wk.P, a.Wv.P, a.Wo.P}
}
