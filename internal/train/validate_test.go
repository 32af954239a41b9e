package train

import (
	"math"
	goruntime "runtime"
	"testing"

	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// TestValidateAtTrainingShape pins the loop's validation, which forwards as
// many sequences at a time as a training forward does. Chunked by 1, B/2 or
// B sequences it returns Validate's float64 bit for bit, also on a batch
// with an ignored target, where the chunks count different rows: the row
// losses are summed in row order across chunks, not chunk by chunk. And
// after warm-up at the training shape, one step and one validation allocate
// less than a single B·T×V logits matrix, under DPPretrain (one sequence per
// forward) and under Accum: 2 (B/2): validating grows no arena.
func TestValidateAtTrainingShape(t *testing.T) {
	const b, seq, batches = 8, 32, 3
	corpus := testCorpus(t)
	model := testModel(31)

	want := Validate(model, corpus, batches, b, seq)
	vb := corpus.ValBatch(0, b, seq)
	vb.Targets[2*seq+5] = -1
	wantBatch := model.EvalLoss(vb.Tokens, vb.Targets, b, seq)
	for _, per := range []int{1, b / 2, b} {
		if got := validate(model, corpus, batches, b, seq, per); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("validate by %d sequences = %v, Validate = %v", per, got, want)
		}
		if got := evalBatch(model, vb, per); math.Float64bits(got) != math.Float64bits(wantBatch) {
			t.Errorf("batch with an ignored target by %d sequences = %v, EvalLoss = %v", per, got, wantBatch)
		}
	}

	// A vocabulary wider than the corpus's makes the logits the largest
	// activation, as in the benchmark's models, rather than the per-forward
	// closures and the batches' token slices.
	wide := nn.Config{Vocab: 256, Dim: 16, Hidden: 32, Heads: 2, Layers: 2, MaxSeq: seq}
	limit := uint64(b * seq * wide.Vocab * 4)
	for _, tc := range []struct {
		name  string
		dp    bool
		accum int
	}{{"DPPretrain", true, 1}, {"Accum2", false, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			model := nn.NewModel(wide, tensor.NewRNG(32))
			opt := optim.NewAdamW(optim.Hyper{LR: 1e-3})
			var dp *dataParallel
			if tc.dp {
				dp = newDataParallel(model, opt, b, 2)
			}
			// Warm-up: one step at the training shape and no validation.
			cfg := PretrainConfig{Batch: b, Seq: seq, Steps: 1, Accum: tc.accum, EvalBatches: -1}.withDefaults()
			pretrain(model, opt, corpus, cfg, dp)

			var before, atEval goruntime.MemStats
			cfg.StartStep, cfg.Steps, cfg.EvalEvery, cfg.EvalBatches = 1, 2, 1, batches
			cfg.Logf = func(string, ...any) {
				if atEval.TotalAlloc == 0 {
					goruntime.ReadMemStats(&atEval)
				}
			}
			goruntime.ReadMemStats(&before)
			pretrain(model, opt, corpus, cfg, dp)
			if atEval.TotalAlloc == 0 {
				t.Fatal("the loop logged no validation")
			}
			grown := atEval.TotalAlloc - before.TotalAlloc
			if grown >= limit {
				t.Errorf("a step and a validation allocate %d bytes, want under %d (one %d×%d logits matrix)", grown, limit, b*seq, wide.Vocab)
			}
			t.Logf("a step and a validation allocate %d bytes", grown)
		})
	}
}
