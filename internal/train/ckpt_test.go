package train

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"apollo/internal/ckpt"
	"apollo/internal/core"
	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/obs/runlog"
	"apollo/internal/optim"
	"apollo/internal/tensor"
	"apollo/internal/zero"
)

// ckptBuilders is the checkpoint acceptance zoo: every optimizer the
// resume-parity contract names, with small ranks and short refresh gaps so
// the 8-step horizon crosses projection refreshes and limiter updates —
// the state a naive checkpoint would drop.
func ckptBuilders() []struct {
	name  string
	build func() optim.Optimizer
} {
	h := optim.Hyper{LR: 1e-3, WeightDecay: 0.01}
	return []struct {
		name  string
		build func() optim.Optimizer
	}{
		{"AdamW", func() optim.Optimizer { return optim.NewAdamW(h) }},
		{"APOLLO", func() optim.Optimizer {
			return core.New(h, core.Config{Rank: 4, Seed: 11, UpdateGap: 3})
		}},
		{"APOLLO-Mini", func() optim.Optimizer { return core.NewMini(h) }},
		{"GaLore", func() optim.Optimizer {
			return optim.NewGaLore(h, optim.LowRankConfig{Rank: 4, Seed: 11, UpdateGap: 3})
		}},
		{"Fira", func() optim.Optimizer {
			return optim.NewFira(h, optim.LowRankConfig{Rank: 4, Seed: 11, UpdateGap: 3})
		}},
		{"Flora", func() optim.Optimizer {
			return optim.NewFlora(h, optim.LowRankConfig{Rank: 4, Seed: 11, UpdateGap: 3})
		}},
		{"SGD", func() optim.Optimizer { return optim.NewSGD(h, 0.9) }},
		{"Adam-mini", func() optim.Optimizer { return optim.NewAdamMini(h) }},
	}
}

func ckptTestSetup(t testing.TB, seed uint64) (*nn.Model, *data.Corpus) {
	t.Helper()
	cfg := nn.Config{Vocab: 64, Dim: 16, Hidden: 40, Heads: 2, Layers: 2, MaxSeq: 32}
	model := nn.NewModel(cfg, tensor.NewRNG(seed))
	srcCfg := data.DefaultSourceConfig()
	srcCfg.Vocab = 64
	src, err := data.NewSource(srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	return model, data.NewCorpus(src, seed+1, seed+2)
}

func ckptTestConfig(steps int) PretrainConfig {
	return PretrainConfig{
		Batch: 6, Seq: 16, Steps: steps, EvalEvery: 2, EvalBatches: 2, ClipNorm: 1.0,
		Schedule: optim.NewWarmupCosine(1e-3, 8),
	}
}

// requireSameTail compares the resumed run's metric series and final
// perplexity against the straight-through run: every eval point the
// resumed run produced must match the reference's tail bit-for-bit.
func requireSameTail(t *testing.T, ref, got Result) {
	t.Helper()
	if len(got.Series) > len(ref.Series) {
		t.Fatalf("resumed series has %d points, reference %d", len(got.Series), len(ref.Series))
	}
	tail := ref.Series[len(ref.Series)-len(got.Series):]
	for i := range got.Series {
		if got.Series[i] != tail[i] {
			t.Fatalf("metric %d differs:\n  got  %+v\n  want %+v", i, got.Series[i], tail[i])
		}
	}
	if got.FinalValPPL != ref.FinalValPPL {
		t.Fatalf("final ppl %v != %v", got.FinalValPPL, ref.FinalValPPL)
	}
}

func requireSameWeights(t *testing.T, ref, got *nn.Model, label string) {
	t.Helper()
	refParams := ref.Params().List()
	for i, p := range got.Params().List() {
		if !p.W.Equal(refParams[i].W) {
			t.Fatalf("weight %s differs bitwise (%s)", p.Name, label)
		}
	}
}

// TestCheckpointResumeParity is the tentpole acceptance contract: for every
// named optimizer, *train K steps → checkpoint → resume K more* reproduces
// an uninterrupted 2K-step run float-for-float — weights, metric series and
// final loss. K=4 crosses the UpdateGap=3 projection refreshes, so the
// snapshot provably carries projector seeds and RNG phase, not just moments.
func TestCheckpointResumeParity(t *testing.T) {
	const seed = 42
	const k = 4
	for _, b := range ckptBuilders() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			refModel, refCorpus := ckptTestSetup(t, seed)
			ref := Pretrain(refModel, b.build(), refCorpus, ckptTestConfig(2*k))

			// Interrupted run: K steps with a checkpoint written at step K.
			path := filepath.Join(t.TempDir(), "run.ckpt")
			halfModel, halfCorpus := ckptTestSetup(t, seed)
			halfCfg := ckptTestConfig(k)
			halfCfg.CkptEvery = k
			halfCfg.CkptPath = path
			Pretrain(halfModel, b.build(), halfCorpus, halfCfg)

			// Resume into entirely fresh objects.
			st, err := ckpt.LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Step != k {
				t.Fatalf("checkpoint at step %d, want %d", st.Step, k)
			}
			resModel, resCorpus := ckptTestSetup(t, seed)
			resOpt := b.build()
			if err := ckpt.Restore(st, resModel.Params().List(), resOpt, resCorpus); err != nil {
				t.Fatal(err)
			}
			resCfg := ckptTestConfig(2 * k)
			resCfg.StartStep = k
			got := Pretrain(resModel, resOpt, resCorpus, resCfg)

			requireSameTail(t, ref, got)
			requireSameWeights(t, refModel, resModel, "straight vs save/resume")
		})
	}
}

// TestElasticReshardParity is the headline elasticity contract: a
// checkpoint written by a `-replicas 3 -zero` run resumes under
// `-replicas 4 -zero` AND under a plain unsharded `-replicas 1` run, both
// reproducing the uninterrupted single-replica reference float-for-float.
// The canonical on-disk layout never mentions the world size: a sharded
// run's state is its inner optimizer's own, and the resumed run fixes a new
// ownership map at its first step.
func TestElasticReshardParity(t *testing.T) {
	const seed = 42
	const k = 4
	builders := ckptBuilders()
	for _, b := range builders {
		switch b.name {
		case "AdamW", "APOLLO", "APOLLO-Mini", "GaLore": // dense-split, projected, tensor-wise rank 1, projected+SVD
		default:
			continue
		}
		b := b
		t.Run(b.name, func(t *testing.T) {
			refModel, refCorpus := ckptTestSetup(t, seed)
			ref := DPPretrain(refModel, b.build(), refCorpus, DPConfig{
				PretrainConfig: ckptTestConfig(2 * k), Replicas: 1,
			})

			// Phase 1: K steps sharded across 3 replicas, checkpoint at K.
			path := filepath.Join(t.TempDir(), "zero.ckpt")
			halfModel, halfCorpus := ckptTestSetup(t, seed)
			halfCfg := ckptTestConfig(k)
			halfCfg.CkptEvery = k
			halfCfg.CkptPath = path
			DPPretrain(halfModel, zero.NewSharded(b.build(), 3), halfCorpus, DPConfig{
				PretrainConfig: halfCfg, Replicas: 3,
			})
			st, err := ckpt.LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			// Resume A: reshard 3 → 4.
			t.Run("reshard-3to4", func(t *testing.T) {
				m, c := ckptTestSetup(t, seed)
				opt := zero.NewSharded(b.build(), 4)
				if err := ckpt.Restore(st, m.Params().List(), opt, c); err != nil {
					t.Fatal(err)
				}
				cfg := ckptTestConfig(2 * k)
				cfg.StartStep = k
				got := DPPretrain(m, opt, c, DPConfig{PretrainConfig: cfg, Replicas: 4})
				requireSameTail(t, ref, got)
				requireSameWeights(t, refModel, m, "zero x3 → zero x4")
			})

			// Resume B: unshard entirely.
			t.Run("unshard", func(t *testing.T) {
				m, c := ckptTestSetup(t, seed)
				opt := b.build()
				if err := ckpt.Restore(st, m.Params().List(), opt, c); err != nil {
					t.Fatal(err)
				}
				cfg := ckptTestConfig(2 * k)
				cfg.StartStep = k
				got := DPPretrain(m, opt, c, DPConfig{PretrainConfig: cfg, Replicas: 1})
				requireSameTail(t, ref, got)
				requireSameWeights(t, refModel, m, "zero x3 → unsharded")
			})
		})
	}
}

// TestShardCheckpointOfUnshardedRun covers the remaining direction: a plain
// fused-loop checkpoint resumes under ZeRO sharding.
func TestShardCheckpointOfUnshardedRun(t *testing.T) {
	const seed = 9
	const k = 4
	h := optim.Hyper{LR: 1e-3, WeightDecay: 0.01}
	build := func() optim.Optimizer {
		return core.New(h, core.Config{Rank: 4, Seed: 11, UpdateGap: 3})
	}

	refModel, refCorpus := ckptTestSetup(t, seed)
	ref := DPPretrain(refModel, build(), refCorpus, DPConfig{
		PretrainConfig: ckptTestConfig(2 * k), Replicas: 1,
	})

	path := filepath.Join(t.TempDir(), "plain.ckpt")
	halfModel, halfCorpus := ckptTestSetup(t, seed)
	halfCfg := ckptTestConfig(k)
	halfCfg.CkptEvery = k
	halfCfg.CkptPath = path
	DPPretrain(halfModel, build(), halfCorpus, DPConfig{PretrainConfig: halfCfg, Replicas: 1})

	st, err := ckpt.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, c := ckptTestSetup(t, seed)
	opt := zero.NewSharded(build(), 4)
	if err := ckpt.Restore(st, m.Params().List(), opt, c); err != nil {
		t.Fatal(err)
	}
	cfg := ckptTestConfig(2 * k)
	cfg.StartStep = k
	got := DPPretrain(m, opt, c, DPConfig{PretrainConfig: cfg, Replicas: 4})
	requireSameTail(t, ref, got)
	requireSameWeights(t, refModel, m, "unsharded → zero x4")
}

// TestLoopWritesFinalSnapshot: the loop is the one writer of a run's
// snapshots. The file it leaves is the run's last state, byte for byte the
// capture of the live objects after the loop; a last step that is also a
// periodic one is written once; a halted run keeps its last periodic
// snapshot and writes no final one.
func TestLoopWritesFinalSnapshot(t *testing.T) {
	cases := []struct {
		name            string
		steps, every    int
		haltAt          int // 0: no halt
		wantStep, saves int // wantStep 0: no file
	}{
		{"final only", 5, 0, 0, 5, 1},
		{"periodic then final", 5, 3, 0, 5, 2},
		{"last step periodic", 6, 3, 0, 6, 2},
		{"halted after a periodic", 8, 2, 3, 2, 1},
		{"halted, final only", 8, 0, 3, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			model, corpus := ckptTestSetup(t, 5)
			opt := optim.NewAdamW(optim.Hyper{LR: 1e-3})
			cfg := ckptTestConfig(c.steps)
			cfg.CkptEvery, cfg.CkptPath = c.every, filepath.Join(t.TempDir(), "run.ckpt")
			saves := 0
			cfg.Logf = func(format string, args ...any) {
				if strings.Contains(format, "checkpoint →") {
					saves++
				}
			}
			if c.haltAt > 0 {
				wd := runlog.NewWatchdog(runlog.WatchdogConfig{Halt: true})
				wd.HookLoss = func(step int, loss float64) float64 {
					if step == c.haltAt {
						return math.NaN()
					}
					return loss
				}
				cfg.Watchdog = wd
			}
			Pretrain(model, opt, corpus, cfg)
			if saves != c.saves {
				t.Fatalf("%d saves logged, want %d", saves, c.saves)
			}
			raw, err := os.ReadFile(cfg.CkptPath)
			if c.wantStep == 0 {
				if !os.IsNotExist(err) {
					t.Fatalf("halted run left a snapshot (err %v)", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			st, err := ckpt.Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if st.Step != c.wantStep {
				t.Fatalf("snapshot at step %d, want %d", st.Step, c.wantStep)
			}
			if c.haltAt > 0 {
				return
			}
			live, err := ckpt.Capture(c.steps, model.Params().List(), opt, corpus)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := ckpt.Write(&want, live); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, want.Bytes()) {
				t.Fatal("final snapshot differs from the capture of the finished run")
			}
		})
	}
}
