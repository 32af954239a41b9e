package nn

import (
	"fmt"
	"math"

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
	q, k, v *tensor.Matrix // N×dim, post-RoPE for q/k
	probs   []float32      // B·H blocks of T(T+1)/2 softmax probabilities, see probsRow
	ctx     *tensor.Matrix // N×dim concatenated head outputs
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

// probsRow returns the t+1 causal probabilities of query position t in
// (batch, head) block bh; the blocks are packed lower triangles.
func (a *Attention) probsRow(bh, t int) []float32 {
	lo := bh*a.seq*(a.seq+1)/2 + t*(t+1)/2
	return a.probs[lo : lo+t+1]
}

// Forward runs causal attention over a batch of B sequences of length T
// flattened to x of shape (B·T)×dim.
func (a *Attention) Forward(x *tensor.Matrix, batch, seq int) *tensor.Matrix {
	if x.Rows != batch*seq {
		panic(fmt.Sprintf("nn: attention rows %d != batch %d × seq %d", x.Rows, batch, seq))
	}
	a.batch, a.seq = batch, seq
	a.q = a.Wq.Forward(x)
	a.k = a.Wk.Forward(x)
	a.v = a.Wv.Forward(x)

	hd := a.HeadDim
	// RoPE on q and k, position = index within the sequence.
	tensor.Parallel(batch*seq, 8, func(n0, n1 int) {
		for n := n0; n < n1; n++ {
			p := n % seq
			for h := 0; h < a.Heads; h++ {
				a.rope.apply(head(a.q, n, h, hd), p, 1)
				a.rope.apply(head(a.k, n, h, hd), p, 1)
			}
		}
	})

	a.probs = a.ws.floats(batch * a.Heads * seq * (seq + 1) / 2)
	a.ctx = a.ws.matrix(x.Rows, x.Cols)
	a.ctx.Zero()
	invSqrt := float32(1 / math.Sqrt(float64(hd)))

	// One task per (batch, head) pair.
	bh := batch * a.Heads
	tensor.Parallel(bh, 1, func(t0, t1 int) {
		for bhIdx := t0; bhIdx < t1; bhIdx++ {
			b := bhIdx / a.Heads
			h := bhIdx % a.Heads
			for t := 0; t < seq; t++ {
				qv := head(a.q, b*seq+t, h, hd)
				prow := a.probsRow(bhIdx, t)
				for u := range prow {
					prow[u] = tensor.Dot(qv, head(a.k, b*seq+u, h, hd)) * invSqrt
				}
				tensor.SoftmaxInPlace(prow)
				cv := head(a.ctx, b*seq+t, h, hd)
				for u := 0; u <= t; u++ {
					p := prow[u]
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
	scratch := a.ws.floats(2 * bh * seq) // a dattn and a dscore row per task
	tensor.Parallel(bh, 1, func(t0, t1 int) {
		for bhIdx := t0; bhIdx < t1; bhIdx++ {
			dattn := scratch[2*bhIdx*seq : (2*bhIdx+1)*seq]
			dscore := scratch[(2*bhIdx+1)*seq : (2*bhIdx+2)*seq]
			b := bhIdx / a.Heads
			h := bhIdx % a.Heads
			for t := 0; t < seq; t++ {
				dcv := head(dctx, b*seq+t, h, hd)
				prow := a.probsRow(bhIdx, t)
				// dattn_u = dctx·v_u ; dv_u += p_u·dctx
				for u := 0; u <= t; u++ {
					vv := head(a.v, b*seq+u, h, hd)
					dattn[u] = tensor.Dot(dcv, vv)
					dvv := head(dv, b*seq+u, h, hd)
					p := prow[u]
					for d := 0; d < hd; d++ {
						dvv[d] += p * dcv[d]
					}
				}
				// softmax backward: ds_u = p_u (dattn_u − Σ_w p_w dattn_w)
				var mix float64
				for u := 0; u <= t; u++ {
					mix += float64(prow[u]) * float64(dattn[u])
				}
				for u := 0; u <= t; u++ {
					dscore[u] = prow[u] * (dattn[u] - float32(mix))
				}
				// dq_t += Σ_u ds_u·k_u·invSqrt ; dk_u += ds_u·q_t·invSqrt
				dqv := head(dq, b*seq+t, h, hd)
				qv := head(a.q, b*seq+t, h, hd)
				for u := 0; u <= t; u++ {
					s := dscore[u] * invSqrt
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
	tensor.Parallel(batch*seq, 8, func(n0, n1 int) {
		for n := n0; n < n1; n++ {
			p := n % seq
			for h := 0; h < a.Heads; h++ {
				a.rope.apply(head(dq, n, h, hd), p, -1)
				a.rope.apply(head(dk, n, h, hd), p, -1)
			}
		}
	})

	dx := a.Wq.Backward(dq)
	tensor.AddInPlace(dx, a.Wk.Backward(dk))
	tensor.AddInPlace(dx, a.Wv.Backward(dv))
	return dx
}

// Params returns the attention parameters in traversal order.
func (a *Attention) Params() []*Param {
	return []*Param{a.Wq.P, a.Wk.P, a.Wv.P, a.Wo.P}
}
