package bench

import (
	"math"

	"apollo/internal/cluster"
	"apollo/internal/memmodel"
	"apollo/internal/obs"
	"apollo/internal/optim"
	"apollo/internal/train"
	"apollo/internal/zero"
)

func init() {
	register(Experiment{
		ID:       "zero",
		Title:    "ZeRO-style sharded optimizer states: parity, per-replica memory, comm",
		PaperRef: "Sec. 5.3, Table 3",
		Run:      runZero,
	})
}

// runZero measures the ZeRO subsystem against its two analytic models: the
// memmodel per-replica state prediction (unsharded footprint / N, the
// quantity Table 3 would report per GPU) and the cluster simulator's
// sharded step time. Every row first verifies the determinism contract —
// the sharded run must reproduce the plain run's final perplexity
// bit-for-bit — so the memory numbers are guaranteed to describe the same
// trajectory.
func runZero(ctx *RunContext) error {
	const world = 4
	proxy, err := ProxyByName("60M")
	if err != nil {
		return err
	}
	steps := 4
	if ctx.Scale == Full {
		steps = 20
	}
	broken := contract{id: "zero"}

	ctx.Printf("proxy-60M, global batch %d, %d steps, %d replicas (ZeRO sharded)\n\n", proxy.Batch, steps, world)
	ctx.Printf("%-22s %-6s %10s %12s %12s %8s\n",
		"optimizer", "parity", "total", "max/replica", "predicted", "dev")

	pcfg := train.PretrainConfig{Batch: proxy.Batch, Seq: proxy.Seq, Steps: steps}
	var zeroRes train.Result
	for _, m := range Methods() {
		if m.Mem == nil {
			continue // no formula to set the per-replica bytes against
		}
		rank := m.Rank(0, proxy.Model.Dim)
		build := func() optim.Optimizer { return m.New(optim.Hyper{LR: proxy.LR}, rank, ctx.Seed) }

		plainCorpus, plainModel, err := ctx.fresh(proxy)
		if err != nil {
			return err
		}
		plain := train.DPPretrain(plainModel, build(), plainCorpus, train.DPConfig{
			PretrainConfig: pcfg, Replicas: 1,
		})

		zCorpus, zModel, err := ctx.fresh(proxy)
		if err != nil {
			return err
		}
		zres := train.DPPretrain(zModel, zero.NewSharded(build(), world), zCorpus, train.DPConfig{
			PretrainConfig: pcfg, Replicas: world,
		})
		zeroRes = zres

		// The ZeRO run must match the unsharded one float-for-float.
		parity := broken.parity(m.Name, zres.FinalValPPL, plain.FinalValPPL)
		var maxReplica int64
		for _, b := range zres.ReplicaStateBytes {
			maxReplica = max(maxReplica, b)
		}
		// The live state price ÷ world: ShardedOptimizerStateBytes's rule.
		predicted := memmodel.LiveStateBytes(memmodel.ShapesOf(plainModel.Params().List()), *m.Mem, rank) / world
		dev := 0.0
		if predicted > 0 {
			dev = (float64(maxReplica) - predicted) / predicted
		}
		ctx.Printf("%-22s %-6s %10s %12s %12s %+7.1f%%\n",
			m.Name, parity,
			obs.FormatBytes(zres.StateBytes),
			obs.FormatBytes(maxReplica),
			obs.FormatBytes(int64(math.Round(predicted))),
			dev*100)
	}

	// Comm volumes: measured counters from the last run vs the analytic
	// per-step expectation.
	paramBytes := 4 * int64(proxy.Model.NumParams())
	ctx.Printf("\ncomm per step (P = %s of fp32 weights):\n", obs.FormatBytes(paramBytes))
	ctx.Printf("  gradient all-reduce  measured %s   analytic (B-1)·P = %s\n",
		obs.FormatBytes(zeroRes.AllReduceBytes/int64(steps)),
		obs.FormatBytes(int64(proxy.Batch-1)*paramBytes))
	ctx.Printf("  weight broadcast     measured %s   analytic (N-1)·P = %s\n",
		obs.FormatBytes(zeroRes.BroadcastBytes/int64(steps)),
		obs.FormatBytes(int64(world-1)*paramBytes))

	// The cluster simulator's prediction for the same mechanism at paper
	// scale: sharding buys per-GPU state memory and a shorter optimizer
	// pass, paid for in broadcast bandwidth.
	cfg, err := memmodel.ConfigByName("7B")
	if err != nil {
		return err
	}
	ctx.Printf("\nsimulated 7B on %d A100s (AdamW profile, seq 1024):\n", world)
	for _, zs := range []bool{false, true} {
		w := cluster.Workload{
			Config: cfg, Dev: cluster.A100_80G(), World: world,
			SeqLen: 1024, GlobalBatch: 64, ZeroShard: zs,
		}
		prof := cluster.ProfileAdamW()
		micro := cluster.MaxMicroBatch(w, prof)
		label := "plain DDP  "
		if zs {
			label = "ZeRO-shard "
		}
		if micro == 0 {
			ctx.Printf("  %s OOM at micro-batch 1\n", label)
			continue
		}
		st := cluster.StepTime(w, prof, micro)
		states := memmodel.ShardedOptimizerStateBytes(cfg, memmodel.MethodAdamW, cfg.DefaultRank(), map[bool]int{false: 1, true: world}[zs])
		ctx.Printf("  %s micro=%-3d step %6.3fs (opt %.4f, comm %.4f)  states/GPU %.2f GiB\n",
			label, micro, st.Total(), st.Optimizer, st.Comm, memmodel.GiB(states))
	}
	return broken.err()
}
