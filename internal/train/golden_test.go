package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"apollo/internal/ckpt"
	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/optim"
)

// Golden digests for the gradient modes no cross-commit fixture covers.
// Fused, DP×N and ZeRO×3 are pinned across commits by the committed
// baseline and TestCrossCommitCheckpointFixtures; gradient accumulation,
// the masked-batch conventions of the fused path and a plain multi-replica
// run were only ever compared within one binary. The digests below were
// computed at commit b10f230 (the last one with two loop bodies) and must
// never be regenerated from HEAD: each is the sha256 of the run's final
// checkpoint (weights, optimizer state, corpus cursor — ckpt.Write) followed
// by the bit patterns of every Result.Series entry.

func loopDigest(t *testing.T, model *nn.Model, opt optim.Optimizer, corpus *data.Corpus, res Result) string {
	t.Helper()
	st, err := ckpt.Capture(res.Steps, model.Params().List(), opt, corpus)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := ckpt.Write(h, st); err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	for _, m := range res.Series {
		for _, v := range []uint64{
			uint64(m.Step), math.Float64bits(m.TrainLoss), math.Float64bits(m.ValLoss),
			math.Float64bits(m.ValPPL), math.Float64bits(m.LR),
		} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// maskAlternating makes the first training batch fully ignore-masked (zero
// loss, zero gradient by convention) and masks every other target of the
// rest, so the global target count differs from the row count.
func maskAlternating(corpus *data.Corpus) {
	calls := 0
	corpus.HookTrainBatch = func(b *data.Batch) {
		for i := range b.Targets {
			if calls%3 == 0 || i%2 == 1 {
				b.Targets[i] = -1
			}
		}
		calls++
	}
}

func TestLoopGolden(t *testing.T) {
	const seed = 31
	decayed := optim.Hyper{LR: 1e-3, WeightDecay: 0.01}
	cfg := PretrainConfig{
		Batch: 6, Seq: 16, Steps: 7, EvalEvery: 3, EvalBatches: 2, ClipNorm: 1.0,
		Schedule: optim.NewWarmupCosine(1e-3, 7),
	}
	cases := []struct {
		name     string
		opt      optim.Optimizer
		accum    int
		replicas int // 0 = fused
		masked   bool
		want     string
	}{
		{"fused/accum=2", optim.NewAdamW(decayed), 2, 0, false,
			"47b30c64bb3a4e99fc608b3fd6c01e407370bf7f27927b2306caf857e7d3afaa"},
		{"fused/accum=3/masked", optim.NewAdamW(decayed), 3, 0, true,
			"4718a377cb9d58b5d770b6839a20ecbcb6037a809facced801e83d8efd836111"},
		{"fused/masked/AdamW", optim.NewAdamW(decayed), 0, 0, true,
			"80c6888385af705a89eafd6e51dd22953bd35f08e4ef996675688ce083d18f80"},
		{"fused/masked/SGD-M", optim.NewSGD(optim.Hyper{LR: 1e-2}, 0.9), 0, 0, true,
			"befa7a9e762a964e778e2379a099292100f227280d3c9b2b845ddc5d845b2651"},
		{"replicas=3", optim.NewAdamW(decayed), 0, 3, false,
			"3447d772e8fe51881e6498bce2d640bec4384f97a274e754b77864cd7c9926d6"},
		{"replicas=3/masked", optim.NewAdamW(decayed), 0, 3, true,
			"7b2df36a2d167070bcf5f18db5fac7d39f003b40c9cce8935de96f12ac394ed8"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			model, _, corpus := dpTestSetup(t, seed)
			if c.masked {
				maskAlternating(corpus)
			}
			run := cfg
			run.Accum = c.accum
			var res Result
			if c.replicas > 0 {
				res = DPPretrain(model, c.opt, corpus, DPConfig{PretrainConfig: run, Replicas: c.replicas})
			} else {
				res = Pretrain(model, c.opt, corpus, run)
			}
			if got := loopDigest(t, model, c.opt, corpus, res); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}
