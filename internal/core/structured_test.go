package core

import (
	"math"
	"testing"

	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

func TestStructuredChannelNormMatchesAdamWChannelNorm(t *testing.T) {
	// By construction, the channel-wise structured update satisfies
	// ‖u[:,j]‖ = s_j·‖G[:,j]‖ = ‖˜G[:,j]‖, i.e. it reproduces AdamW's
	// per-channel update magnitude while following the raw gradient's
	// direction. Verify against a live AdamW on identical gradients.
	const m, n = 8, 24
	pS := matParam(t, "w", m, n, 31)
	pA := matParam(t, "w", m, n, 31)
	h := optim.Hyper{LR: 0.1}
	structured := NewStructuredAdamW(h, Channel)
	structured.Gamma = 0 // isolate the structural property from the limiter
	adam := optim.NewAdamW(h)

	rng := tensor.NewRNG(32)
	for step := 0; step < 5; step++ {
		fillGrad(pS, rng, 1)
		pA.Grad.CopyFrom(pS.Grad)
		beforeS := pS.W.Clone()
		beforeA := pA.W.Clone()
		structured.Step([]*nn.Param{pS})
		adam.Step([]*nn.Param{pA})
		dS := tensor.Sub(pS.W, beforeS)
		dA := tensor.Sub(pA.W, beforeA)
		nS := dS.ColNorms()
		nA := dA.ColNorms()
		for j := range nS {
			if nA[j] < 1e-12 {
				continue
			}
			if math.Abs(nS[j]-nA[j])/nA[j] > 1e-3 {
				t.Fatalf("step %d channel %d: structured ‖Δ‖=%v adamw ‖Δ‖=%v", step, j, nS[j], nA[j])
			}
		}
	}
}

func TestStructuredTensorSingleFactor(t *testing.T) {
	// Tensor granularity scales the whole gradient by one factor: update
	// must be exactly collinear with G.
	p := matParam(t, "w", 8, 24, 33)
	h := optim.Hyper{LR: 0.1}
	s := NewStructuredAdamW(h, Tensor)
	s.Gamma = 0
	rng := tensor.NewRNG(34)
	fillGrad(p, rng, 1)
	g := p.Grad.Clone()
	before := p.W.Clone()
	s.Step([]*nn.Param{p})
	delta := tensor.Sub(p.W, before)
	cos := float64(tensor.Dot(delta.Data, g.Data)) / (delta.Norm()*g.Norm() + 1e-20)
	if math.Abs(cos+1) > 1e-5 { // descent: cosine ≈ −1
		t.Fatalf("tensor-scaled update not collinear with gradient: cos=%v", cos)
	}
}

func TestStructuredLossDecreasesOnTinyModel(t *testing.T) {
	cfg := nn.Config{Vocab: 19, Dim: 8, Hidden: 16, Heads: 2, Layers: 1, MaxSeq: 8}
	model := nn.NewModel(cfg, tensor.NewRNG(35))
	opt := NewStructuredAdamW(optim.Hyper{LR: 0.01}, Channel)
	rng := tensor.NewRNG(36)
	tokens := make([]int, 2*8)
	targets := make([]int, 2*8)
	for i := range tokens {
		tokens[i] = rng.Intn(cfg.Vocab)
		targets[i] = rng.Intn(cfg.Vocab)
	}
	var first, last float64
	for step := 0; step < 40; step++ {
		model.Params().ZeroGrad()
		loss := model.Loss(tokens, targets, 2, 8)
		if step == 0 {
			first = loss
		}
		last = loss
		opt.Step(model.Params().List())
	}
	if last >= first {
		t.Fatalf("structured AdamW failed to reduce loss: %v → %v", first, last)
	}
}

func TestAPOLLOLossDecreasesOnTinyModel(t *testing.T) {
	cfg := nn.Config{Vocab: 19, Dim: 8, Hidden: 16, Heads: 2, Layers: 1, MaxSeq: 8}
	for _, mk := range []func() optim.Optimizer{
		func() optim.Optimizer { return New(optim.Hyper{LR: 0.01}, Config{Rank: 2}) },
		func() optim.Optimizer { return NewMini(optim.Hyper{LR: 0.01}) },
	} {
		model := nn.NewModel(cfg, tensor.NewRNG(37))
		opt := mk()
		rng := tensor.NewRNG(38)
		tokens := make([]int, 2*8)
		targets := make([]int, 2*8)
		for i := range tokens {
			tokens[i] = rng.Intn(cfg.Vocab)
			targets[i] = rng.Intn(cfg.Vocab)
		}
		var first, last float64
		for step := 0; step < 40; step++ {
			model.Params().ZeroGrad()
			loss := model.Loss(tokens, targets, 2, 8)
			if step == 0 {
				first = loss
			}
			last = loss
			opt.Step(model.Params().List())
		}
		if last >= first {
			t.Fatalf("%s failed to reduce loss: %v → %v", opt.Name(), first, last)
		}
	}
}

func TestStructuredStateBytesLikeAdamW(t *testing.T) {
	const m, n = 8, 24
	p := matParam(t, "w", m, n, 39)
	s := NewStructuredAdamW(optim.Hyper{LR: 0.01}, Channel)
	rng := tensor.NewRNG(40)
	fillGrad(p, rng, 1)
	s.Step([]*nn.Param{p})
	want := int64(4 * (2*m*n + 1))
	if got := s.StateBytes(); got != want {
		t.Fatalf("StateBytes = %d want %d (full moments + limiter)", got, want)
	}
}

func TestChannelScalesGuardZeroColumns(t *testing.T) {
	num := tensor.NewMatrix(4, 3)
	den := tensor.NewMatrix(4, 3)
	num.Set(0, 0, 1)
	// den column 0 is zero → scale must be 0, not Inf.
	s := num.ColNorms()
	channelRatios(s, den.ColNorms())
	if s[0] != 0 {
		t.Fatalf("scale for zero-denominator channel = %v, want 0", s[0])
	}
}

func TestTensorScaleGuardZero(t *testing.T) {
	num := tensor.NewMatrix(2, 2)
	den := tensor.NewMatrix(2, 2)
	if f := tensorScale(num.Norm(), den.Norm()); f != 0 {
		t.Fatalf("tensorScale(0,0) = %v want 0", f)
	}
}
