package nn

import (
	"testing"

	"apollo/internal/tensor"
)

// The 1B proxy's attention (dim 96, 6 heads) at pretrain_fused's 8×64
// tokens, on an arena of its own as a Model binds it.
const benchDim, benchHeads, benchBatch, benchSeq = 96, 6, 8, 64

func benchAttention() (*Attention, *tensor.Matrix) {
	rng := tensor.NewRNG(32)
	a := NewAttention("attn", benchDim, benchHeads, benchSeq, rng)
	a.ws = &workspace{}
	for _, l := range []*Linear{a.Wq, a.Wk, a.Wv, a.Wo} {
		l.ws = a.ws
	}
	return a, tensor.NewMatrixRand(benchBatch*benchSeq, benchDim, 1, rng)
}

// BenchmarkAttentionForward is one attention forward: the four projections,
// RoPE, and the scores, softmax and context of every query row.
func BenchmarkAttentionForward(b *testing.B) {
	a, x := benchAttention()
	for b.Loop() {
		a.ws.reset()
		a.Forward(x, benchBatch, benchSeq, 0)
	}
}

// BenchmarkAttentionBackward is one attention backward after a forward,
// the rebuild of every probability row included.
func BenchmarkAttentionBackward(b *testing.B) {
	a, x := benchAttention()
	a.Forward(x, benchBatch, benchSeq, 0)
	dy := tensor.NewMatrixRand(benchBatch*benchSeq, benchDim, 1, tensor.NewRNG(33))
	for b.Loop() {
		mark := a.ws.mark()
		a.Backward(dy)
		a.ws.release(mark)
	}
}
