package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"

	"apollo/internal/ckpt"
	"apollo/internal/memmodel"
	"apollo/internal/obs"
	"apollo/internal/optim"
	"apollo/internal/train"
	"apollo/internal/zero"
)

func init() {
	register(Experiment{
		ID:       "ckpt",
		Title:    "Checkpoint/resume: bit-parity, elastic resharding, predicted vs actual size",
		PaperRef: "system claim (production training; Sec. 5.3 memory accounting)",
		Run:      runCkpt,
	})
}

// runCkpt exercises the checkpoint subsystem end to end on the 60M proxy:
// every row trains K steps under `-replicas 3 -zero`, writes a periodic
// snapshot through the real train-loop wiring, resumes it under a
// *different* world (4 shards) for another K steps, and verifies the final
// perplexity matches an uninterrupted single-replica run bit-for-bit. The
// size columns compare the serialized file against
// memmodel.CheckpointBytes — the accounting apollo-memplan and apollo-ckpt
// print — and a corrupted copy must be rejected by its section CRC.
func runCkpt(ctx *RunContext) error {
	proxy, err := ProxyByName("60M")
	if err != nil {
		return err
	}
	k := 4
	if ctx.Scale == Full {
		k = 10
	}
	dir, err := os.MkdirTemp("", "apollo-ckpt-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rows := []string{"AdamW", "APOLLO", "APOLLO-Mini", "GaLore"}
	broken := contract{id: "ckpt"}
	ctx.Printf("proxy-60M, %d+%d steps, save under zero x3 → resume under zero x4\n\n", k, k)
	ctx.Printf("%-12s %-7s %10s %10s %8s\n", "optimizer", "parity", "file", "predicted", "dev")

	for _, name := range rows {
		m, err := MethodByName(name)
		if err != nil {
			return err
		}
		rank := m.Rank(0, proxy.Model.Dim)
		build := func() optim.Optimizer { return m.New(optim.Hyper{LR: proxy.LR}, rank, ctx.Seed) }
		pcfg := train.PretrainConfig{Batch: proxy.Batch, Seq: proxy.Seq, Steps: 2 * k}

		// Uninterrupted single-replica reference.
		refCorpus, refModel, err := ctx.fresh(proxy)
		if err != nil {
			return err
		}
		ref := train.DPPretrain(refModel, build(), refCorpus, train.DPConfig{
			PretrainConfig: pcfg, Replicas: 1,
		})

		// Interrupted: K steps sharded across 3, periodic save at step K.
		path := filepath.Join(dir, name+".ckpt")
		halfCorpus, halfModel, err := ctx.fresh(proxy)
		if err != nil {
			return err
		}
		halfCfg := pcfg
		halfCfg.Steps = k
		halfCfg.CkptEvery = k
		halfCfg.CkptPath = path
		train.DPPretrain(halfModel, zero.NewSharded(build(), 3), halfCorpus, train.DPConfig{
			PretrainConfig: halfCfg, Replicas: 3,
		})

		// Resume under a different world size.
		st, err := ckpt.LoadFile(path)
		if err != nil {
			return err
		}
		resCorpus, resModel, err := ctx.fresh(proxy)
		if err != nil {
			return err
		}
		resOpt := zero.NewSharded(build(), 4)
		if err := ckpt.Restore(st, resModel.Params().List(), resOpt, resCorpus); err != nil {
			return err
		}
		resCfg := pcfg
		resCfg.StartStep = k
		res := train.DPPretrain(resModel, resOpt, resCorpus, train.DPConfig{
			PretrainConfig: resCfg, Replicas: 4,
		})

		// The resumed run must match the straight one float-for-float.
		parity := broken.parity(name, res.FinalValPPL, ref.FinalValPPL)

		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		predicted := memmodel.CheckpointBytes(memmodel.ShapesOf(refModel.Params().List()), *m.Mem, rank)
		dev := (float64(fi.Size()) - predicted) / predicted
		ctx.Printf("%-12s %-7s %10s %10s %+7.2f%%\n",
			name, parity,
			obs.FormatBytes(fi.Size()),
			obs.FormatBytes(int64(math.Round(predicted))),
			dev*100)
	}

	// Integrity: one flipped byte in the weights payload must be rejected.
	raw, err := os.ReadFile(filepath.Join(dir, "AdamW.ckpt"))
	if err != nil {
		return err
	}
	raw[len(raw)/2] ^= 1
	if _, err := ckpt.Read(bytes.NewReader(raw)); err != nil {
		ctx.Printf("\ncorruption check: flipped one byte → rejected (%v)\n", err)
	} else {
		ctx.Printf("\ncorruption check: FAILED — corrupted file was accepted\n")
		broken.fail("corruption check")
	}
	return broken.err()
}
