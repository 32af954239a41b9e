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
// computed at commit b10f230 (the last one with two loop bodies) and
// re-recorded once, for checkpoint format v2 and parameter-keyed draws —
// the AdamW and SGD rows' weights, state and series unchanged through it —
// and must not otherwise be regenerated from HEAD: each is the sha256 of
// the run's final checkpoint (weights, optimizer state, corpus cursor —
// ckpt.Write) followed by the bit patterns of every Result.Series entry.

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
			"596679816cd07ef875ca93ee72b496fcfa071f5ac49e63b1eaf934a3abf2e2c4"},
		{"fused/accum=3/masked", adamW, 3, 0, true, false, 0,
			"01d9a9aed90fb929fe9abb3647a0ce8cc6f3f4eed1d82af1f8828439148e3264"},
		{"fused/masked/AdamW", adamW, 0, 0, true, false, 0,
			"7359aac2d47209f5a949f812f27de2d114e8716b47c5dcb0232d243f3ec73ada"},
		{"fused/masked/SGD-M", func() optim.Optimizer { return optim.NewSGD(optim.Hyper{LR: 1e-2}, 0.9) }, 0, 0, true, false, 0,
			"2a38ab17ef782ba0ccef4b21407da3e7a8484e6f1d7d059c51cd4bc710c0a0ba"},
		{"replicas=3", adamW, 0, 3, false, false, 0,
			"9aa401fcedd16979b5a2f42871290f137916e6ac77d5890975c1f8832fdcda4f"},
		{"replicas=3/masked", adamW, 0, 3, true, false, 0,
			"1b9201b74e338c106b5432c4c0925f05281923a1761191bb98cc8ce37b3bb1a0"},
		// Unclipped rows, first recorded at d3ea51e, before a step could
		// overlap backward; re-recorded with the rest, and reached alike with
		// the overlap on and forced off. The clip never fires on the
		// fused/accum=2 run, so its unclipped twin reaches the same bits by
		// the other path.
		{"fused/unclipped/APOLLO", apollo, 0, 0, false, true, 0,
			"12680c47c161ed3863737909a0e4ab1284f24082711ed75972356bc780adb1e3"},
		{"fused/unclipped/APOLLO-Mini", func() optim.Optimizer { return core.NewMini(decayed) }, 0, 0, false, true, 0,
			"1a2e2a67df56af770efb62c611b314377f8ffc9371793734d838afb4ab67b553"},
		{"fused/unclipped/8-bit Adam", func() optim.Optimizer { return optim.NewAdam8bit(decayed, 11) }, 0, 0, false, true, 0,
			"fa6ca59bd0e7cb2024020c27715059f55a06f6a13f39389c078632294fde05f1"},
		{"fused/unclipped/accum=2", adamW, 2, 0, false, true, 0,
			"596679816cd07ef875ca93ee72b496fcfa071f5ac49e63b1eaf934a3abf2e2c4"},
		{"fused/unclipped/APOLLO/resume=3", apollo, 0, 0, false, true, 3,
			"0edbb4cdd9b7924396ece905e298df531b771d56943e21c4cf5e4157f588a48c"},
		// Recorded at e519628, before the unclipped fused stage lent
		// gradients: a batch with no target borrows nothing, and the
		// whole-list step that follows must still see zero gradients.
		{"fused/unclipped/masked/APOLLO", apollo, 0, 0, true, true, 0,
			"8b858b20dde49c8587136f92c3764ecc3e6416411ec15f3b1d727b884fb3a0d8"},
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
