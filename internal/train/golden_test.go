package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"path/filepath"
	"testing"

	"apollo/internal/ckpt"
	"apollo/internal/core"
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
	adamW := func() optim.Optimizer { return optim.NewAdamW(decayed) }
	apollo := func() optim.Optimizer { return core.New(decayed, core.Config{Rank: 4, Seed: 11, UpdateGap: 3}) }
	cases := []struct {
		name     string
		opt      func() optim.Optimizer
		accum    int
		replicas int // 0 = fused
		masked   bool
		// unclipped runs without ClipNorm: the only runs whose steps may
		// overlap backward, so the rows below pin that path across commits.
		unclipped bool
		resume    int // > 0: resumed at this step from a checkpoint the same run wrote there
		want      string
	}{
		{"fused/accum=2", adamW, 2, 0, false, false, 0,
			"47b30c64bb3a4e99fc608b3fd6c01e407370bf7f27927b2306caf857e7d3afaa"},
		{"fused/accum=3/masked", adamW, 3, 0, true, false, 0,
			"4718a377cb9d58b5d770b6839a20ecbcb6037a809facced801e83d8efd836111"},
		{"fused/masked/AdamW", adamW, 0, 0, true, false, 0,
			"80c6888385af705a89eafd6e51dd22953bd35f08e4ef996675688ce083d18f80"},
		{"fused/masked/SGD-M", func() optim.Optimizer { return optim.NewSGD(optim.Hyper{LR: 1e-2}, 0.9) }, 0, 0, true, false, 0,
			"befa7a9e762a964e778e2379a099292100f227280d3c9b2b845ddc5d845b2651"},
		{"replicas=3", adamW, 0, 3, false, false, 0,
			"3447d772e8fe51881e6498bce2d640bec4384f97a274e754b77864cd7c9926d6"},
		{"replicas=3/masked", adamW, 0, 3, true, false, 0,
			"7b2df36a2d167070bcf5f18db5fac7d39f003b40c9cce8935de96f12ac394ed8"},
		// Unclipped rows, recorded at d3ea51e, before a step could overlap
		// backward. The clip never fires on the fused/accum=2 run, so its
		// unclipped twin reaches the same bits by the other path.
		{"fused/unclipped/APOLLO", apollo, 0, 0, false, true, 0,
			"d65e5e689414346e1b6539878de16688718d4a374ad65d71c4ecc72996a309e3"},
		{"fused/unclipped/APOLLO-Mini", func() optim.Optimizer { return core.NewMini(decayed) }, 0, 0, false, true, 0,
			"2fa0d9a800703c3a6f1286ab848828f441265617d61de29bd0598dca587f9af7"},
		{"fused/unclipped/8-bit Adam", func() optim.Optimizer { return optim.NewAdam8bit(decayed, 11) }, 0, 0, false, true, 0,
			"a258d07904ef7ca55d6c1ea6d554319247819cf30c8d100350df6c469e397063"},
		{"fused/unclipped/accum=2", adamW, 2, 0, false, true, 0,
			"47b30c64bb3a4e99fc608b3fd6c01e407370bf7f27927b2306caf857e7d3afaa"},
		{"fused/unclipped/APOLLO/resume=3", apollo, 0, 0, false, true, 3,
			"7d956500f6557961b039484a08229fe3868975e6470b73eeb0e82456ec048d10"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			model, _, corpus := dpTestSetup(t, seed)
			if c.masked {
				maskAlternating(corpus)
			}
			run := cfg
			run.Accum = c.accum
			if c.unclipped {
				run.ClipNorm = 0
			}
			opt := c.opt()
			if c.resume > 0 {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				first := run
				first.Steps, first.CkptEvery, first.CkptPath = c.resume, c.resume, path
				Pretrain(model, opt, corpus, first)
				st, err := ckpt.LoadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				model, _, corpus = dpTestSetup(t, seed)
				opt = c.opt()
				if err := ckpt.Restore(st, model.Params().List(), opt, corpus); err != nil {
					t.Fatal(err)
				}
				run.StartStep = c.resume
			}
			var res Result
			if c.replicas > 0 {
				res = DPPretrain(model, opt, corpus, DPConfig{PretrainConfig: run, Replicas: c.replicas})
			} else {
				res = Pretrain(model, opt, corpus, run)
			}
			if got := loopDigest(t, model, opt, corpus, res); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}
