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
// checkpoint already on disk. The files under testdata/ were first written
// by commit 13dac4a (the last one with four hand-kept projected optimizers)
// for the projected family and by commit 3060225 (the last one where the
// rest of the zoo hand-kept its checkpoint hooks) for AdamW, 8-bit GaLore,
// DoRA and Q-APOLLO: fused Pretrain on fixtureSetup/fixtureConfig for
// fixtureAt steps, saved at that step. All eight were rewritten once, in
// format version 2 (no optimizer-level cursor section; random draws keyed
// by parameter), by the same procedure — which reproduced the version-1
// files byte for byte on the commit before. The digests are the sha256 of
// the checkpoint file the writing commit reached by resuming each fixture
// to fixtureEnd. They are not regenerable from HEAD by design — a new
// fixture is written with the commit that introduces its optimizer or its
// format and then never touched.
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
	// zero.NewSharded(build(), 3) must reach there.
	fused, zero3 string
}{
	// SVD P (third Whole matrix) + limiter scalar: both optional slots.
	{"fira.ckpt", func() optim.Optimizer {
		return optim.NewFira(fixtureHyper, optim.LowRankConfig{Rank: 2, Seed: 5, UpdateGap: 3})
	}, "9c9b13bd29ff9d767f0e7420bfd1f6c034ae13942de7caf60211069f49047d69",
		"1069c24dfb2fbb08ded51d1de4b5064579da78ad8b35800861158d210e78ded5"},
	{"flora.ckpt", func() optim.Optimizer {
		return optim.NewFlora(fixtureHyper, optim.LowRankConfig{Rank: 2, Seed: 5, UpdateGap: 3})
	}, "f441b702976f8f34f388bee2bec589ffeee65c84516eb3cc8db5be5e591fed4b",
		"a6983c76b6c98f582a1fc96b3db4a4067837659dabfbcb2834fe8b74b463a58b"},
	{"galore-rp.ckpt", func() optim.Optimizer {
		return optim.NewGaLore(fixtureHyper, optim.LowRankConfig{
			Rank: 2, Seed: 5, UpdateGap: 3, Projection: linalg.RandomProjection})
	}, "ab4032d38d800dc91c8647771fe311331d80d3ede5763c294d78de190f4e4b65",
		"f426c5c0021dbd16e29a694347b67ff1dfe75b874318858a24d94cc5e1d96f49"},
	{"apollo.ckpt", func() optim.Optimizer {
		return core.New(fixtureHyper, core.Config{Rank: 2, Seed: 5, UpdateGap: 3})
	}, "153b4a6b9987df96965dfc9915927b10483cfa85e6696c0f3485b7e4ab95c84a",
		"bcf8208533233a4e7e643a1e9003824b8367ee709d14c7eb155ed1882b04c582"},
	// Row-aligned moments: the one layout ZeRO cuts along rows.
	{"adamw.ckpt", func() optim.Optimizer { return optim.NewAdamW(fixtureHyper) },
		"3bbdbc0e1f928e9a0a8991bbed1b6a9eae17eb9c5e1a264f721ab3cd7f6455bd", "0a1844164a167a29859fd5ff6d17fc360a2dc9d0915993616dcb3265c7f10f88"},
	// INT8 blobs + projector scalars + SVD P.
	{"galore8bit.ckpt", func() optim.Optimizer {
		return optim.NewGaLore8bit(fixtureHyper, optim.LowRankConfig{Rank: 2, Seed: 5, UpdateGap: 3})
	}, "05fa71df7483489c7d1184a276f11fcdd754ad4c5574b65a71f14af57872a206", "c604a5a3136852aa701f40db26cca871d3cb41804eb79a135cb7893c62acb083"},
	// Every optional Factorized slot: frozen base, magnitudes and their moments.
	{"dora.ckpt", func() optim.Optimizer {
		return optim.NewFactorized(fixtureHyper, optim.FactorizedConfig{Mode: optim.ModeDoRA, Rank: 2, Seed: 5})
	}, "a9b16b84c999c2c01e27ce5898d90d561f6e908ab6e2853f77acb2b5bfa2025a", "5b5a90497ccc8503bf2d31242e437e3930ba03afbf65ca659ae3aa6ec5650b96"},
	// Nested Sub state under INT8 weight blobs.
	{"q-apollo.ckpt", func() optim.Optimizer {
		return optim.NewWeightQuantized(core.New(fixtureHyper, core.Config{Rank: 2, Seed: 5, UpdateGap: 3}), 6)
	}, "c9ae49d680209430f1cc6c70c318c9246199265021e7136f47655621c0c303e5", "5979d9e16d3e734a278ac3a09bf8dabd28d2d93eb6a7fff3d1a24202c0c3832a"},
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
