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
	att.Forward(x, 1, seq, 0)
	// Probabilities for head 0, final position, from the kept post-RoPE q
	// and k (the forward keeps no probabilities).
	hd := dim / heads
	last := make([]float32, seq)
	for u := range last {
		last[u] = tensor.Dot(head(att.q, seq-1, 0, hd), head(att.k, u, 0, hd)) / float32(math.Sqrt(float64(hd)))
	}
	tensor.SoftmaxInPlace(last)
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

// TestLentRingMatchesResident: under LentGrads a pass gives every group,
// while it holds its slab, the gradient a resident Backward accumulates, bit
// for bit — the second pass too, on slabs that came back dirty — and the
// model then holds exactly the ring's two largest-group slabs. A nil pass on
// dirty slabs releases zeros. A pass whose give-backs are abandoned panics at
// its next borrow instead of waiting, and the pass after it starts from a
// fresh ring.
func TestLentRingMatchesResident(t *testing.T) {
	cfg := tinyConfig()
	cfg.Layers = 3
	tokens := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	dlogits := func(m *Model) *tensor.Matrix {
		_, d := CrossEntropy(m.Forward(tokens, 2, 6), tokens, -1)
		return d
	}
	resident := NewModel(cfg, tensor.NewRNG(16))
	resident.Backward(dlogits(resident))
	want := resident.Params().List()
	if got := resident.GradBytes(); got != 4*int64(cfg.NumParams()) {
		t.Fatalf("resident GradBytes %d, want %d", got, 4*cfg.NumParams())
	}

	model := NewModel(cfg, tensor.NewRNG(16))
	if prev := model.SetGradPolicy(LentGrads); prev != ResidentGrads {
		t.Fatalf("a new model's policy is %v, want ResidentGrads", prev)
	}
	list := model.Params().List()
	index := map[*Param]int{}
	for i, p := range list {
		index[p] = i
	}
	lent := func(d *tensor.Matrix, release func([]*Param)) (got []*tensor.Matrix) {
		got = make([]*tensor.Matrix, len(list))
		model.BackwardRelease(d, func(g []*Param) {
			for _, p := range g {
				got[index[p]] = p.Grad.Clone()
			}
			release(g)
		})
		return got
	}
	for pass := 1; pass <= 2; pass++ {
		got := lent(dlogits(model), model.GiveBack)
		for i, p := range list {
			if !got[i].Equal(want[i].Grad) {
				t.Fatalf("pass %d: lent gradient of %s differs from the resident one", pass, p.Name)
			}
			if p.Grad.Data != nil {
				t.Fatalf("pass %d: %s still holds storage after GiveBack", pass, p.Name)
			}
		}
		block := 4*cfg.Dim*cfg.Dim + 3*cfg.Dim*cfg.Hidden + 2*cfg.Dim
		if got := model.GradBytes(); got != 2*4*int64(block) {
			t.Fatalf("pass %d: GradBytes %d, want two slabs of one block, %d", pass, got, 2*4*block)
		}
	}
	for i, g := range lent(nil, model.GiveBack) {
		if g.SqNorm() != 0 {
			t.Fatalf("a nil pass released a nonzero gradient for %s", list[i].Name)
		}
	}

	var released int
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("a borrow after AbandonLending returned")
			}
		}()
		lent(dlogits(model), func([]*Param) {
			if released++; released == 2 {
				model.AbandonLending()
			}
		})
	}()
	if released != 2 {
		t.Fatalf("the abandoned pass released %d groups, want 2", released)
	}
	got := lent(dlogits(model), model.GiveBack)
	for i, p := range list {
		if !got[i].Equal(want[i].Grad) {
			t.Fatalf("after an abandoned pass: lent gradient of %s differs", p.Name)
		}
	}
}

// TestNoGradsHoldsNothing: under NoGrads a model holds no gradient storage
// and every Param.Grad is nil, forward passes still run, a backward pass
// panics, and back under ResidentGrads the model trains again: zeroed
// storage, and the gradient a fresh model accumulates.
func TestNoGradsHoldsNothing(t *testing.T) {
	cfg := tinyConfig()
	tokens := []int{1, 2, 3, 4, 5, 6}
	fresh := NewModel(cfg, tensor.NewRNG(17))
	fresh.Loss(tokens, tokens, 1, 6)

	model := NewModel(cfg, tensor.NewRNG(17))
	model.SetGradPolicy(NoGrads)
	if got := model.GradBytes(); got != 0 {
		t.Fatalf("GradBytes %d under NoGrads, want 0", got)
	}
	for _, p := range model.Params().List() {
		if p.Grad != nil {
			t.Fatalf("%s holds a gradient under NoGrads", p.Name)
		}
	}
	if got, want := model.EvalLoss(tokens, tokens, 1, 6), fresh.EvalLoss(tokens, tokens, 1, 6); got != want {
		t.Fatalf("EvalLoss %v under NoGrads, want %v", got, want)
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("a backward pass under NoGrads returned")
			}
		}()
		model.Loss(tokens, tokens, 1, 6)
	}()
	model.SetGradPolicy(ResidentGrads)
	if got := model.GradBytes(); got != 4*int64(cfg.NumParams()) {
		t.Fatalf("GradBytes %d resident again, want %d", got, 4*cfg.NumParams())
	}
	model.Loss(tokens, tokens, 1, 6)
	for i, p := range model.Params().List() {
		if !p.Grad.Equal(fresh.Params().List()[i].Grad) {
			t.Fatalf("resident again: gradient of %s differs from a fresh model's", p.Name)
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
