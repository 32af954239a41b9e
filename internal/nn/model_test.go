package nn

import (
	"math"
	"slices"
	"testing"

	"apollo/internal/tensor"
)

func tinyConfig() Config {
	return Config{Vocab: 19, Dim: 8, Hidden: 16, Heads: 2, Layers: 2, MaxSeq: 8}
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Heads = 3 // 8 % 3 != 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected divisibility error")
	}
	bad2 := good
	bad2.Layers = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected non-positive error")
	}
}

func TestNumParamsMatchesActual(t *testing.T) {
	cfg := tinyConfig()
	model := NewModel(cfg, tensor.NewRNG(1))
	if got, want := model.Params().NumParams(), cfg.NumParams(); got != want {
		t.Fatalf("NumParams analytic %d vs actual %d", want, got)
	}
}

func TestForwardShapes(t *testing.T) {
	cfg := tinyConfig()
	model := NewModel(cfg, tensor.NewRNG(2))
	tokens := make([]int, 2*4)
	logits := model.Forward(tokens, 2, 4)
	if logits.Rows != 8 || logits.Cols != cfg.Vocab {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
}

func TestForwardDeterministic(t *testing.T) {
	cfg := tinyConfig()
	a := NewModel(cfg, tensor.NewRNG(3))
	b := NewModel(cfg, tensor.NewRNG(3))
	tokens := []int{1, 2, 3, 4, 5, 6, 7, 8}
	la := a.Forward(tokens, 2, 4)
	lb := b.Forward(tokens, 2, 4)
	if !la.Equal(lb) {
		t.Fatal("same seed + same input must give identical logits")
	}
}

func TestCausality(t *testing.T) {
	// Changing a future token must not affect logits at earlier positions.
	cfg := tinyConfig()
	model := NewModel(cfg, tensor.NewRNG(4))
	tokens := []int{1, 2, 3, 4, 5, 6}
	l1 := model.Forward(tokens, 1, 6).Clone()
	tokens[5] = 9 // perturb the last position only
	l2 := model.Forward(tokens, 1, 6)
	for pos := 0; pos < 5; pos++ {
		for j := 0; j < cfg.Vocab; j++ {
			if l1.At(pos, j) != l2.At(pos, j) {
				t.Fatalf("position %d logit %d changed after editing a future token", pos, j)
			}
		}
	}
	// The final position must change (sanity that the input matters at all).
	same := true
	for j := 0; j < cfg.Vocab; j++ {
		if l1.At(5, j) != l2.At(5, j) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("final-position logits identical after changing its token")
	}
}

func TestBatchIndependence(t *testing.T) {
	// Sequences in a batch must not attend across each other.
	cfg := tinyConfig()
	model := NewModel(cfg, tensor.NewRNG(5))
	s1 := []int{1, 2, 3, 4}
	s2 := []int{9, 8, 7, 6}
	solo := model.Forward(s1, 1, 4).Clone()
	both := model.Forward(append(append([]int{}, s1...), s2...), 2, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < cfg.Vocab; j++ {
			if math.Abs(float64(solo.At(i, j)-both.At(i, j))) > 1e-5 {
				t.Fatalf("batching changed sequence-1 logits at (%d,%d)", i, j)
			}
		}
	}
}

func TestRoPEMakesPositionMatter(t *testing.T) {
	// For a sequence of identical hidden states, attention scores at the
	// last position would be exactly uniform without positional information;
	// RoPE rotates q and k by position so the scores depend on relative
	// distance and the probabilities become non-uniform.
	rng := tensor.NewRNG(6)
	const dim, heads, seq = 8, 2, 4
	att := NewAttention("attn", dim, heads, seq, rng)
	x := tensor.NewMatrix(seq, dim)
	row := make([]float32, dim)
	for i := range row {
		row[i] = rng.NormFloat32()
	}
	for i := 0; i < seq; i++ {
		copy(x.Row(i), row)
	}
	att.Forward(x, 1, seq)
	// probs for head 0, final position.
	last := att.probsRow(0, seq-1)
	if len(last) != seq {
		t.Fatalf("last query row has %d probabilities, want %d", len(last), seq)
	}
	mn, mx := last[0], last[0]
	for _, p := range last {
		if p < mn {
			mn = p
		}
		if p > mx {
			mx = p
		}
	}
	if float64(mx-mn) < 1e-7 {
		t.Fatalf("attention probs uniform despite RoPE: %v", last)
	}
}

func TestRopeTableInverse(t *testing.T) {
	rt := newRopeTable(16, 8)
	rng := tensor.NewRNG(7)
	x := make([]float32, 8)
	for i := range x {
		x[i] = rng.NormFloat32()
	}
	orig := append([]float32{}, x...)
	rt.apply(x, 11, 1)
	rt.apply(x, 11, -1)
	for i := range x {
		if math.Abs(float64(x[i]-orig[i])) > 1e-5 {
			t.Fatalf("RoPE inverse failed at %d: %v vs %v", i, x[i], orig[i])
		}
	}
}

func TestRopeNormPreserving(t *testing.T) {
	rt := newRopeTable(16, 8)
	rng := tensor.NewRNG(8)
	x := make([]float32, 8)
	for i := range x {
		x[i] = rng.NormFloat32()
	}
	before := tensor.NormSlice(x)
	rt.apply(x, 7, 1)
	after := tensor.NormSlice(x)
	if math.Abs(before-after) > 1e-5 {
		t.Fatalf("RoPE changed the norm: %v → %v", before, after)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// A few plain-SGD steps on a fixed batch must reduce the loss — the
	// end-to-end smoke test that forward, backward and the parameter update
	// all cooperate.
	cfg := tinyConfig()
	model := NewModel(cfg, tensor.NewRNG(9))
	rng := tensor.NewRNG(10)
	tokens := make([]int, 2*6)
	targets := make([]int, 2*6)
	for i := range tokens {
		tokens[i] = rng.Intn(cfg.Vocab)
		targets[i] = rng.Intn(cfg.Vocab)
	}
	first := math.Inf(1)
	var last float64
	for step := 0; step < 30; step++ {
		model.Params().ZeroGrad()
		loss := model.Loss(tokens, targets, 2, 6)
		if step == 0 {
			first = loss
		}
		last = loss
		for _, p := range model.Params().List() {
			tensor.AxpyInPlace(p.W, -0.05, p.Grad)
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v → %v", first, last)
	}
}

func TestParamKinds(t *testing.T) {
	model := NewModel(tinyConfig(), tensor.NewRNG(11))
	kinds := map[ParamKind]int{}
	for _, p := range model.Params().List() {
		kinds[p.Kind]++
	}
	// Embedding and unembedding are both vocab tables (dense-AdamW only).
	if kinds[KindEmbedding] != 2 {
		t.Fatalf("want 2 embedding params, got %d", kinds[KindEmbedding])
	}
	// 2 layers × (4 attn + 3 mlp) = 14 projectable matrices.
	if kinds[KindMatrix] != 14 {
		t.Fatalf("want 14 matrix params, got %d", kinds[KindMatrix])
	}
	// 2 norms per block × 2 + final = 5 vectors.
	if kinds[KindVector] != 5 {
		t.Fatalf("want 5 vector params, got %d", kinds[KindVector])
	}
}

func TestClipGradNorm(t *testing.T) {
	model := NewModel(tinyConfig(), tensor.NewRNG(12))
	rng := tensor.NewRNG(13)
	for _, p := range model.Params().List() {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat32()
		}
	}
	pre := model.Params().GradNorm()
	got := model.Params().ClipGradNorm(1.0)
	if math.Abs(got-pre) > 1e-9 {
		t.Fatalf("ClipGradNorm returned %v want pre-clip norm %v", got, pre)
	}
	post := model.Params().GradNorm()
	if math.Abs(post-1.0) > 1e-3 {
		t.Fatalf("post-clip norm %v want 1.0", post)
	}
}

// TestBackwardReleaseOrder is the contract a caller stepping released groups
// during the pass relies on: on a 3-layer model with masked targets the
// groups come as [norm_f, head], blocks 2, 1, 0, [embed] and cover the
// parameter list exactly once; no gradient changes after its group was
// released; and Backward is the same pass, bit for bit.
func TestBackwardReleaseOrder(t *testing.T) {
	cfg := tinyConfig()
	cfg.Layers = 3
	rng := tensor.NewRNG(15)
	tokens := make([]int, 2*6)
	targets := make([]int, len(tokens))
	for i := range tokens {
		tokens[i] = rng.Intn(cfg.Vocab)
		targets[i] = rng.Intn(cfg.Vocab)
		if i%3 == 1 {
			targets[i] = -1
		}
	}
	pass := func(release func([]*Param)) *Model {
		model := NewModel(cfg, tensor.NewRNG(16))
		_, dlogits := CrossEntropy(model.Forward(tokens, 2, 6), targets, -1)
		if release == nil {
			model.Backward(dlogits)
		} else {
			model.BackwardRelease(dlogits, release)
		}
		return model
	}

	var names []string
	var groups [][]string
	snap := map[*Param]*tensor.Matrix{}
	model := pass(func(g []*Param) {
		var group []string
		for _, p := range g {
			if _, seen := snap[p]; seen {
				t.Errorf("%s released twice", p.Name)
			}
			snap[p] = p.Grad.Clone()
			group = append(group, p.Name)
		}
		names = append(names, group...)
		groups = append(groups, group)
	})
	want := []string{"norm_f", "head"}
	for i := cfg.Layers - 1; i >= 0; i-- {
		for _, p := range model.Blocks[i].Params() {
			want = append(want, p.Name)
		}
	}
	want = append(want, "embed")
	if len(groups) != cfg.Layers+2 || !slices.Equal(names, want) {
		t.Fatalf("released %v, want %v in %d groups", groups, want, cfg.Layers+2)
	}
	list := model.Params().List()
	if len(snap) != len(list) {
		t.Fatalf("released %d parameters, the model has %d", len(snap), len(list))
	}
	whole := pass(nil).Params().List()
	for i, p := range list {
		if !p.Grad.Equal(snap[p]) {
			t.Errorf("gradient of %s changed after its group was released", p.Name)
		}
		if !p.Grad.Equal(whole[i].Grad) {
			t.Errorf("gradient of %s differs between Backward and BackwardRelease", p.Name)
		}
	}
}

func TestEvalLossMatchesLoss(t *testing.T) {
	cfg := tinyConfig()
	model := NewModel(cfg, tensor.NewRNG(14))
	tokens := []int{1, 2, 3, 4}
	targets := []int{2, 3, 4, 5}
	e := model.EvalLoss(tokens, targets, 1, 4)
	model.Params().ZeroGrad()
	l := model.Loss(tokens, targets, 1, 4)
	if math.Abs(e-l) > 1e-6 {
		t.Fatalf("EvalLoss %v != Loss %v", e, l)
	}
}
