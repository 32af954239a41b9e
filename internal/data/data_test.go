package data

import (
	"testing"
	"testing/quick"
)

func testSource(t *testing.T) *Source {
	t.Helper()
	src, err := NewSource(DefaultSourceConfig())
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestSourceConfigValidate(t *testing.T) {
	good := DefaultSourceConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*SourceConfig){
		func(c *SourceConfig) { c.Vocab = 1 },
		func(c *SourceConfig) { c.Branch = 0 },
		func(c *SourceConfig) { c.Branch = c.Vocab + 1 },
		func(c *SourceConfig) { c.CopyProb = 1.5 },
		func(c *SourceConfig) { c.CopyLagMax = c.CopyLagMin - 1 },
		func(c *SourceConfig) { c.TopicSwitch = -0.1 },
	}
	for i, mutate := range cases {
		c := DefaultSourceConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error for %+v", i, c)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	src := testSource(t)
	a := src.NewStream(42)
	b := src.NewStream(42)
	for i := 0; i < 500; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same stream seed must generate identical tokens")
		}
	}
}

func TestStreamsWithDifferentSeedsDiffer(t *testing.T) {
	src := testSource(t)
	a := src.NewStream(1)
	b := src.NewStream(2)
	same := 0
	for i := 0; i < 200; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 150 {
		t.Fatalf("streams nearly identical: %d/200 matches", same)
	}
}

func TestTokensInRange(t *testing.T) {
	src := testSource(t)
	st := src.NewStream(7)
	for i := 0; i < 5000; i++ {
		tok := st.Next()
		if tok < 0 || tok >= src.Config().Vocab {
			t.Fatalf("token %d out of range", tok)
		}
	}
}

func TestStreamIsNotUniform(t *testing.T) {
	// The Markov structure must make the bigram distribution far from
	// uniform — otherwise there is nothing to learn.
	src := testSource(t)
	st := src.NewStream(9)
	prev := st.Next()
	repeats := map[[2]int]int{}
	for i := 0; i < 20000; i++ {
		tok := st.Next()
		repeats[[2]int{prev, tok}]++
		prev = tok
	}
	// A uniform process over 256² bigrams would almost never exceed ~5
	// occurrences of any pair in 20k draws; the Markov chain concentrates.
	maxCount := 0
	for _, c := range repeats {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount < 10 {
		t.Fatalf("bigram concentration too weak (max count %d)", maxCount)
	}
}

func TestBatchShiftInvariant(t *testing.T) {
	src := testSource(t)
	c := NewCorpus(src, 1, 2)
	b := c.NextTrainBatch(3, 16)
	if len(b.Tokens) != 48 || len(b.Targets) != 48 {
		t.Fatalf("batch sizes %d/%d", len(b.Tokens), len(b.Targets))
	}
	// Targets must be inputs shifted by one within each row.
	for row := 0; row < 3; row++ {
		for i := 0; i < 15; i++ {
			if b.Targets[row*16+i] != b.Tokens[row*16+i+1] {
				t.Fatalf("row %d pos %d: target %d != next token %d",
					row, i, b.Targets[row*16+i], b.Tokens[row*16+i+1])
			}
		}
	}
}

func TestValBatchDeterministic(t *testing.T) {
	src := testSource(t)
	c := NewCorpus(src, 1, 99)
	a := c.ValBatch(0, 2, 8)
	b := c.ValBatch(0, 2, 8)
	for i := range a.Tokens {
		if a.Tokens[i] != b.Tokens[i] {
			t.Fatal("validation batches must be reproducible")
		}
	}
	other := c.ValBatch(1, 2, 8)
	diff := false
	for i := range a.Tokens {
		if a.Tokens[i] != other.Tokens[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different val indices should give different data")
	}
}

func TestTrainBatchesAdvance(t *testing.T) {
	src := testSource(t)
	c := NewCorpus(src, 5, 6)
	a := c.NextTrainBatch(1, 16)
	b := c.NextTrainBatch(1, 16)
	same := true
	for i := range a.Tokens {
		if a.Tokens[i] != b.Tokens[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("consecutive train batches must differ")
	}
}

func TestGenerateMCTaskShape(t *testing.T) {
	src := testSource(t)
	cfg := MCTaskConfig{Name: "t", Items: 10, CtxLen: 8, ContLen: 4, Options: 3, Distractor: 0.5, Seed: 1}
	items := GenerateMCTask(src, cfg)
	if len(items) != 10 {
		t.Fatalf("%d items", len(items))
	}
	for _, it := range items {
		if len(it.Context) != 8 {
			t.Fatalf("ctx len %d", len(it.Context))
		}
		if len(it.Options) != 3 {
			t.Fatalf("%d options", len(it.Options))
		}
		if it.Answer < 0 || it.Answer >= 3 {
			t.Fatalf("answer %d", it.Answer)
		}
		for _, o := range it.Options {
			if len(o) != 4 {
				t.Fatalf("option len %d", len(o))
			}
		}
	}
}

func TestGenerateMCTaskDeterministic(t *testing.T) {
	src := testSource(t)
	cfg := MCTaskConfig{Name: "t", Items: 5, CtxLen: 8, ContLen: 4, Options: 2, Distractor: 0.5, Seed: 7}
	a := GenerateMCTask(src, cfg)
	b := GenerateMCTask(src, cfg)
	for i := range a {
		if a[i].Answer != b[i].Answer {
			t.Fatal("task generation must be deterministic")
		}
	}
}

func TestZeroShotSuiteNames(t *testing.T) {
	suite := ZeroShotSuite(1)
	if len(suite) != 10 {
		t.Fatalf("%d tasks, want 10 (Table 4)", len(suite))
	}
	names := map[string]bool{}
	for _, cfg := range suite {
		if names[cfg.Name] {
			t.Fatalf("duplicate task %q", cfg.Name)
		}
		names[cfg.Name] = true
	}
	for _, want := range []string{"BoolQ", "RTE", "HellaSwag", "WinoGrande", "OBQA", "ARC-E", "ARC-C", "PIQA", "SciQ", "MathQA"} {
		if !names[want] {
			t.Fatalf("missing task %q", want)
		}
	}
}

func TestGenerateFTTaskLabels(t *testing.T) {
	src := testSource(t)
	cfg := FTTaskConfig{Name: "x", Train: 20, Test: 10, CtxLen: 12, Classes: 4, Noise: 0, Seed: 3}
	task := GenerateFTTask(src, cfg)
	if len(task.TrainSet) != 20 || len(task.TestSet) != 10 {
		t.Fatalf("sizes %d/%d", len(task.TrainSet), len(task.TestSet))
	}
	for _, ex := range append(task.TrainSet, task.TestSet...) {
		if ex.Label < 0 || ex.Label >= 4 {
			t.Fatalf("label %d", ex.Label)
		}
		if len(ex.Context) != 12 {
			t.Fatalf("ctx len %d", len(ex.Context))
		}
	}
	if task.LabelBase+task.Cfg.Classes > src.Config().Vocab {
		t.Fatal("label tokens exceed vocab")
	}
}

func TestFTTaskTopicDecodable(t *testing.T) {
	// With zero label noise, contexts from different classes must have
	// different empirical distributions — check that the most frequent
	// token differs between at least one pair of classes.
	src := testSource(t)
	cfg := FTTaskConfig{Name: "x", Train: 200, Test: 10, CtxLen: 24, Classes: 4, Noise: 0, Seed: 5}
	task := GenerateFTTask(src, cfg)
	hist := make([][]int, 4)
	for i := range hist {
		hist[i] = make([]int, src.Config().Vocab)
	}
	for _, ex := range task.TrainSet {
		for _, tok := range ex.Context {
			hist[ex.Label][tok]++
		}
	}
	argmax := func(xs []int) int {
		bi, best := 0, xs[0]
		for i, v := range xs {
			if v > best {
				bi, best = i, v
			}
		}
		return bi
	}
	tops := map[int]bool{}
	for _, h := range hist {
		tops[argmax(h)] = true
	}
	if len(tops) < 2 {
		t.Fatal("class-conditional distributions indistinguishable")
	}
}

func TestSuitesHaveExpectedSizes(t *testing.T) {
	if got := len(CommonsenseSuite(1)); got != 8 {
		t.Fatalf("commonsense suite %d tasks, want 8 (Table 5)", got)
	}
	if got := len(MMLUSuite(1)); got != 4 {
		t.Fatalf("MMLU suite %d domains, want 4 (Table 6)", got)
	}
}

func TestStreamPropertyTokensBounded(t *testing.T) {
	src := testSource(t)
	f := func(seed uint64) bool {
		st := src.NewStream(seed)
		for i := 0; i < 64; i++ {
			tok := st.Next()
			if tok < 0 || tok >= src.Config().Vocab {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
