package train

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"apollo/internal/ckpt"
	"apollo/internal/core"
	"apollo/internal/data"
	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
	"apollo/internal/zero"
)

// Cross-commit checkpoint fixtures. Every other checkpoint test writes and
// reads with the same binary, so a change to the canonical optimizer-state
// layout that is self-consistent would pass them all and still strand every
// checkpoint already on disk. The files under testdata/ were written once,
// by commit 13dac4a (the last one with four hand-kept projected optimizers)
// for the projected family and by commit 3060225 (the last one where the
// rest of the zoo hand-kept its checkpoint hooks) for AdamW, 8-bit GaLore,
// DoRA and Q-APOLLO: fused Pretrain on fixtureSetup/fixtureConfig for
// fixtureAt steps, saved at that step. The digests are the sha256 of the
// checkpoint file the same commit reached by resuming each fixture to
// fixtureEnd. They are not regenerable from HEAD by design — a new fixture
// is written with the commit that introduces its optimizer and then never
// touched.
const (
	fixtureAt  = 5 // step the fixtures were saved at: past one refresh (gap 3), limiter armed
	fixtureEnd = 9 // resumed to here: crosses the step-6 refresh
)

var ckptFixtures = []struct {
	file  string
	build func() optim.Optimizer
	// sha256 of the step-fixtureEnd checkpoint, resumed by the fused loop
	// and by DPPretrain at 3 replicas (the two loops round differently by
	// contract, so each has its own digest). zero3 is what both build() and
	// zero.NewSharded(build(), 3) must reach there; for galore8bit and
	// q-apollo it was recorded from the unsharded optimizer, the one form in
	// which the commits before the partition was one optimizer could run them.
	fused, zero3 string
}{
	// SVD P (third Whole matrix) + limiter scalar: both optional slots.
	{"fira.ckpt", func() optim.Optimizer {
		return optim.NewFira(fixtureHyper, optim.LowRankConfig{Rank: 2, Seed: 5, UpdateGap: 3})
	}, "8562a53b433676b635f3ed53f633850754aabcc104e2fdb89f0fce621c4ed7aa",
		"f022a0ce3025a7040bb39254e693bed88f9e9165bfd3b5c1ad46c0c765b9f7c4"},
	{"flora.ckpt", func() optim.Optimizer {
		return optim.NewFlora(fixtureHyper, optim.LowRankConfig{Rank: 2, Seed: 5, UpdateGap: 3})
	}, "c9f4e849989f0cf38b65e3cf3ffcf402616079fd8fdff295bcf314670a6498da",
		"08372cbfbe7f7438e6b0a472a00af0b7aeff404e452058616c96ec556ec9032b"},
	{"galore-rp.ckpt", func() optim.Optimizer {
		return optim.NewGaLore(fixtureHyper, optim.LowRankConfig{
			Rank: 2, Seed: 5, UpdateGap: 3, Projection: linalg.RandomProjection})
	}, "f553cf32d44306782545e4a30ecc89bbb070fb2620056a614a6562d7196db6f4",
		"0c8b6c559937ab24381aff7446c8f181d77f4e556c936def9ec65d3914db6283"},
	{"apollo.ckpt", func() optim.Optimizer {
		return core.New(fixtureHyper, core.Config{Rank: 2, Seed: 5, UpdateGap: 3})
	}, "b8e48406782f6d2740d874df8fa0410139ee7af676cfe98efb1a8fc437884b67",
		"80ee6d6fd3777ece20a9f01c965e0ec4f8d4d2c733116773a50b0b8980841362"},
	// Row-aligned moments: the one layout ZeRO cuts along rows.
	{"adamw.ckpt", func() optim.Optimizer { return optim.NewAdamW(fixtureHyper) },
		"7b4624d5797cadfc345517a37bca96d5a134f812379dbe07d0223e1947a5662a", "3c9c9e6a78a57f580456e2aa80bfd266a3bb8e5100cb582594813fd24ae6da7c"},
	// INT8 blobs + projector scalars + SVD P, and the two-cursor globals.
	{"galore8bit.ckpt", func() optim.Optimizer {
		return optim.NewGaLore8bit(fixtureHyper, optim.LowRankConfig{Rank: 2, Seed: 5, UpdateGap: 3})
	}, "e09e557290116da72d8ff84c7409f6f871f480e22754a97354e29ea17bd5e663", "b17ebb63d29d91cf497faa81e8f425be47ca1ad75c6f92c13a49d9fadfb73da8"},
	// Every optional Factorized slot: frozen base, magnitudes and their moments.
	{"dora.ckpt", func() optim.Optimizer {
		return optim.NewFactorized(fixtureHyper, optim.FactorizedConfig{Mode: optim.ModeDoRA, Rank: 2, Seed: 5})
	}, "53b6c07d3c6ba570d65a52768334f06607189c6e665f4b32059f769a61af843e", "45b113c8244143bd7ebc20b13ad6a32fcc6e8dcc14319e59cb0be0fe781f443c"},
	// Nested Sub state under INT8 weight blobs.
	{"q-apollo.ckpt", func() optim.Optimizer {
		return optim.NewWeightQuantized(core.New(fixtureHyper, core.Config{Rank: 2, Seed: 5, UpdateGap: 3}), 6)
	}, "a34c62b479212b926b53746ca6f0215d36f49c7ca55b14fff0628a2abd0919a5", "e0317a86aa1ad98d2e56d53c5b9f7a2d3b5ee829886d069a41494343d327b136"},
}

var fixtureHyper = optim.Hyper{LR: 1e-3, WeightDecay: 0.01}

func fixtureSetup(t testing.TB) (*nn.Model, *data.Corpus) {
	t.Helper()
	cfg := nn.Config{Vocab: 32, Dim: 8, Hidden: 16, Heads: 2, Layers: 1, MaxSeq: 16}
	model := nn.NewModel(cfg, tensor.NewRNG(77))
	srcCfg := data.DefaultSourceConfig()
	srcCfg.Vocab = 32
	src, err := data.NewSource(srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	return model, data.NewCorpus(src, 78, 79)
}

func fixtureConfig(steps int) PretrainConfig {
	return PretrainConfig{
		Batch: 3, Seq: 8, Steps: steps, EvalEvery: steps, EvalBatches: 1, ClipNorm: 1.0,
		Schedule: optim.NewWarmupCosine(1e-3, fixtureEnd),
	}
}

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func TestCrossCommitCheckpointFixtures(t *testing.T) {
	for _, f := range ckptFixtures {
		f := f
		resume := func(t *testing.T, opt optim.Optimizer, run func(*nn.Model, optim.Optimizer, *data.Corpus, PretrainConfig)) string {
			st, err := ckpt.LoadFile(filepath.Join("testdata", f.file))
			if err != nil {
				t.Fatal(err)
			}
			if st.Step != fixtureAt {
				t.Fatalf("fixture at step %d, want %d", st.Step, fixtureAt)
			}
			model, corpus := fixtureSetup(t)
			if err := ckpt.Restore(st, model.Params().List(), opt, corpus); err != nil {
				t.Fatal(err)
			}
			cfg := fixtureConfig(fixtureEnd)
			cfg.StartStep = fixtureAt
			cfg.CkptEvery = fixtureEnd
			cfg.CkptPath = filepath.Join(t.TempDir(), "final.ckpt")
			run(model, opt, corpus, cfg)
			return fileDigest(t, cfg.CkptPath)
		}
		t.Run(f.file+"/fused", func(t *testing.T) {
			got := resume(t, f.build(), func(m *nn.Model, o optim.Optimizer, c *data.Corpus, cfg PretrainConfig) {
				Pretrain(m, o, c, cfg)
			})
			if got != f.fused {
				t.Fatalf("final checkpoint digest %s, want %s", got, f.fused)
			}
		})
		t.Run(f.file+"/zero3", func(t *testing.T) {
			for _, opt := range []optim.Optimizer{zero.NewSharded(f.build(), 3), f.build()} {
				got := resume(t, opt, func(m *nn.Model, o optim.Optimizer, c *data.Corpus, cfg PretrainConfig) {
					DPPretrain(m, o, c, DPConfig{PretrainConfig: cfg, Replicas: 3})
				})
				if got != f.zero3 {
					t.Fatalf("%s: final checkpoint digest %s, want %s", opt.Name(), got, f.zero3)
				}
			}
		})
	}
}
