package nn

import (
	"math"
	"testing"

	"apollo/internal/tensor"
)

// relErr returns |a−b| / max(1e-8, |a|+|b|).
func relErr(a, b float64) float64 {
	den := math.Abs(a) + math.Abs(b)
	if den < 1e-8 {
		den = 1e-8
	}
	return math.Abs(a-b) / den
}

// checkGrad compares an analytic gradient entry against a central-difference
// estimate of loss() under perturbation of data[idx].
func checkGrad(t *testing.T, label string, data []float32, idx int, analytic float64, loss func() float64, eps float32, tol float64) {
	t.Helper()
	orig := data[idx]
	data[idx] = orig + eps
	lp := loss()
	data[idx] = orig - eps
	lm := loss()
	data[idx] = orig
	numeric := (lp - lm) / (2 * float64(eps))
	// Ignore entries whose gradient is numerically negligible relative to
	// float32 noise in the loss.
	if math.Abs(numeric) < 5e-4 && math.Abs(analytic) < 5e-4 {
		return
	}
	if re := relErr(analytic, numeric); re > tol {
		t.Errorf("%s[%d]: analytic %.6g vs numeric %.6g (rel %.3g)", label, idx, analytic, numeric, re)
	}
}

// weightedLoss builds a deterministic scalar from a matrix so dL/dY equals
// the weight matrix c.
func weightedLoss(y, c *tensor.Matrix) float64 {
	var s float64
	for i, v := range y.Data {
		s += float64(v) * float64(c.Data[i])
	}
	return s
}

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	lin := NewLinear("w", 7, 5, 0.5, rng)
	x := tensor.NewMatrixRand(4, 7, 1, rng)
	c := tensor.NewMatrixRand(4, 5, 1, rng)

	loss := func() float64 { return weightedLoss(lin.Forward(x), c) }
	loss() // populate caches
	lin.P.ZeroGrad()
	dx := lin.Backward(c)

	for _, idx := range []int{0, 3, 11, 20, 34} {
		checkGrad(t, "linear.W", lin.P.W.Data, idx, float64(lin.P.Grad.Data[idx]), loss, 1e-3, 0.02)
	}
	for _, idx := range []int{0, 5, 13, 27} {
		checkGrad(t, "linear.x", x.Data, idx, float64(dx.Data[idx]), loss, 1e-3, 0.02)
	}
}

func TestRMSNormGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	norm := NewRMSNorm("n", 6)
	// Non-trivial gain.
	for i := range norm.P.W.Data {
		norm.P.W.Data[i] = 0.5 + rng.Float32()
	}
	x := tensor.NewMatrixRand(3, 6, 1, rng)
	c := tensor.NewMatrixRand(3, 6, 1, rng)

	loss := func() float64 { return weightedLoss(norm.Forward(x), c) }
	loss()
	norm.P.ZeroGrad()
	dx := norm.Backward(c)

	for idx := 0; idx < 6; idx++ {
		checkGrad(t, "rmsnorm.g", norm.P.W.Data, idx, float64(norm.P.Grad.Data[idx]), loss, 1e-3, 0.02)
	}
	for _, idx := range []int{0, 4, 9, 17} {
		checkGrad(t, "rmsnorm.x", x.Data, idx, float64(dx.Data[idx]), loss, 1e-3, 0.02)
	}
}

func TestSwiGLUGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	mlp := NewSwiGLU("mlp", 5, 8, rng)
	// Larger init to push silu out of its linear regime.
	for _, p := range mlp.Params() {
		for i := range p.W.Data {
			p.W.Data[i] = rng.NormFloat32() * 0.5
		}
	}
	x := tensor.NewMatrixRand(3, 5, 1, rng)
	c := tensor.NewMatrixRand(3, 5, 1, rng)

	loss := func() float64 { return weightedLoss(mlp.Forward(x), c) }
	loss()
	for _, p := range mlp.Params() {
		p.ZeroGrad()
	}
	dx := mlp.Backward(c)

	for _, p := range mlp.Params() {
		for _, idx := range []int{0, 7, 19} {
			if idx < len(p.W.Data) {
				checkGrad(t, p.Name, p.W.Data, idx, float64(p.Grad.Data[idx]), loss, 1e-3, 0.03)
			}
		}
	}
	for _, idx := range []int{0, 6, 14} {
		checkGrad(t, "swiglu.x", x.Data, idx, float64(dx.Data[idx]), loss, 1e-3, 0.03)
	}
}

func TestAttentionGradients(t *testing.T) {
	rng := tensor.NewRNG(4)
	const dim, heads, batch, seq = 8, 2, 2, 4
	att := NewAttention("attn", dim, heads, seq, rng)
	for _, p := range att.Params() {
		for i := range p.W.Data {
			p.W.Data[i] = rng.NormFloat32() * 0.3
		}
	}
	x := tensor.NewMatrixRand(batch*seq, dim, 1, rng)
	c := tensor.NewMatrixRand(batch*seq, dim, 1, rng)

	loss := func() float64 { return weightedLoss(att.Forward(x, batch, seq, 0), c) }
	loss()
	for _, p := range att.Params() {
		p.ZeroGrad()
	}
	dx := att.Backward(c)

	for _, p := range att.Params() {
		for _, idx := range []int{0, 17, 40, 63} {
			checkGrad(t, p.Name, p.W.Data, idx, float64(p.Grad.Data[idx]), loss, 1e-3, 0.05)
		}
	}
	for _, idx := range []int{0, 13, 31, 55} {
		checkGrad(t, "attn.x", x.Data, idx, float64(dx.Data[idx]), loss, 1e-3, 0.05)
	}
}

func TestModelEndToEndGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	cfg := Config{Vocab: 17, Dim: 8, Hidden: 12, Heads: 2, Layers: 2, MaxSeq: 6}
	model := NewModel(cfg, rng)
	const batch, seq = 2, 4
	tokens := make([]int, batch*seq)
	targets := make([]int, batch*seq)
	for i := range tokens {
		tokens[i] = rng.Intn(cfg.Vocab)
		targets[i] = rng.Intn(cfg.Vocab)
	}

	loss := func() float64 { return model.EvalLoss(tokens, targets, batch, seq) }

	model.Params().ZeroGrad()
	got := model.Loss(tokens, targets, batch, seq)
	if math.IsNaN(got) {
		t.Fatal("loss is NaN")
	}

	// Spot-check a handful of entries in every parameter tensor.
	for _, p := range model.Params().List() {
		indices := []int{0}
		if p.NumEl() > 10 {
			indices = append(indices, p.NumEl()/2, p.NumEl()-1)
		}
		for _, idx := range indices {
			checkGrad(t, p.Name, p.W.Data, idx, float64(p.Grad.Data[idx]), loss, 2e-3, 0.08)
		}
	}
}

func TestCrossEntropyAgainstManual(t *testing.T) {
	logits := tensor.FromSlice(1, 3, []float32{1, 2, 3})
	loss, dl := CrossEntropy(logits, []int{2}, -1)
	// Manual: lse = log(e¹+e²+e³); loss = lse − 3.
	lse := math.Log(math.Exp(1) + math.Exp(2) + math.Exp(3))
	if relErr(loss, lse-3) > 1e-5 {
		t.Fatalf("loss = %v want %v", loss, lse-3)
	}
	// Gradient rows sum to zero (softmax − onehot).
	var sum float64
	for _, v := range dl.Row(0) {
		sum += float64(v)
	}
	if math.Abs(sum) > 1e-6 {
		t.Fatalf("dlogits row sums to %v", sum)
	}
}

func TestCrossEntropyIgnoreIndex(t *testing.T) {
	rng := tensor.NewRNG(6)
	logits := tensor.NewMatrixRand(4, 5, 1, rng)
	lossAll, _ := CrossEntropy(logits, []int{1, 2, 3, 4}, -1)
	lossMasked, dl := CrossEntropy(logits, []int{1, -1, -1, 4}, -1)
	if lossAll == lossMasked {
		t.Fatal("masking should change the mean loss in general")
	}
	for _, v := range dl.Row(1) {
		if v != 0 {
			t.Fatal("ignored row must have zero gradient")
		}
	}
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	rng := tensor.NewRNG(7)
	logits := tensor.NewMatrixRand(3, 6, 1, rng)
	targets := []int{0, 3, 5}
	_, dl := CrossEntropy(logits, targets, -1)
	loss := func() float64 {
		l, _ := CrossEntropy(logits, targets, -1)
		return l
	}
	for _, idx := range []int{0, 5, 9, 17} {
		checkGrad(t, "ce.logits", logits.Data, idx, float64(dl.Data[idx]), loss, 1e-3, 0.02)
	}
}

// TestCrossEntropyShardWritesOverLogits pins the in-place form: the gradient
// lands in the logits' own storage, each element bit for bit the softmax
// formula taken from an untouched copy, a row whose target is ignored reads
// exact zeros whatever its logits were, and CrossEntropy leaves the caller's
// logits alone and hands back fresh storage.
func TestCrossEntropyShardWritesOverLogits(t *testing.T) {
	logits := tensor.NewMatrixRand(5, 7, 3, tensor.NewRNG(8))
	targets := []int{2, -1, 0, 6, -1}
	const normCount = 11 // a wider batch's count, as a data-parallel shard sees
	orig := logits.Clone()
	storage := &logits.Data[0]

	sum, dl := CrossEntropyShard(logits, targets, -1, normCount)
	if &dl.Data[0] != storage || dl.Rows != orig.Rows || dl.Cols != orig.Cols {
		t.Fatal("CrossEntropyShard returned storage other than the logits it was handed")
	}
	invN := float32(1.0 / float64(normCount))
	var wantSum float64
	for i, tgt := range targets {
		row, got := orig.Row(i), dl.Row(i)
		if tgt == -1 {
			nonzero := false
			for j := range row {
				nonzero = nonzero || row[j] != 0
				if math.Float32bits(got[j]) != 0 {
					t.Fatalf("ignored row %d col %d reads %v, want exactly 0", i, j, got[j])
				}
			}
			if !nonzero {
				t.Fatalf("ignored row %d had zero logits: the test proves nothing", i)
			}
			continue
		}
		lse := tensor.LogSumExp(row)
		wantSum += lse - float64(row[tgt])
		for j, v := range row {
			want := float32(expf(float64(v)-lse)) * invN
			if j == tgt {
				want -= invN
			}
			if math.Float32bits(got[j]) != math.Float32bits(want) {
				t.Fatalf("row %d col %d: dlogits %v, formula %v", i, j, got[j], want)
			}
		}
	}
	if math.Float64bits(sum) != math.Float64bits(wantSum) {
		t.Fatalf("loss sum %v, formula %v", sum, wantSum)
	}

	caller := orig.Clone()
	loss, fresh := CrossEntropy(caller, targets, -1)
	if !caller.Equal(orig) {
		t.Fatal("CrossEntropy modified the caller's logits")
	}
	if &fresh.Data[0] == &caller.Data[0] {
		t.Fatal("CrossEntropy returned the caller's logits as dlogits")
	}
	counted := CountTargets(targets, -1)
	shardSum, shard := CrossEntropyShard(orig.Clone(), targets, -1, counted)
	if loss != shardSum/float64(counted) || !fresh.Equal(shard) {
		t.Fatal("CrossEntropy differs from CrossEntropyShard at the batch's own count")
	}
}
