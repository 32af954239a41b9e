package bench

import (
	"time"

	"apollo/internal/cluster"
	"apollo/internal/memmodel"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

func init() {
	register(Experiment{
		ID:       "table1",
		Title:    "Optimizer-state formulas and capability matrix",
		PaperRef: "Table 1",
		Run:      runTable1,
	})
	register(Experiment{
		ID:       "fig1-memory",
		Title:    "LLaMA-7B memory breakdown per method",
		PaperRef: "Fig. 1 (middle)",
		Run:      runFig1Memory,
	})
	register(Experiment{
		ID:       "fig1-throughput",
		Title:    "8×A100 end-to-end throughput",
		PaperRef: "Fig. 1 (right)",
		Run:      runFig1Throughput,
	})
	register(Experiment{
		ID:       "fig9",
		Title:    "GaLore throughput spikes from periodic SVD",
		PaperRef: "Fig. 9",
		Run:      runFig9,
	})
	register(Experiment{
		ID:       "table7",
		Title:    "Optimizer step time (measured, proxy scale)",
		PaperRef: "Table 7",
		Run:      runTable7,
	})
	register(Experiment{
		ID:       "table11",
		Title:    "Pre-training hyperparameters (paper configs + proxies)",
		PaperRef: "Tables 11/12",
		Run:      runTable11,
	})
	register(Experiment{
		ID:       "scaling-13b",
		Title:    "13B naive-DDP and 7B <12GB feasibility",
		PaperRef: "Section 5.3",
		Run:      runScaling13B,
	})
}

// paperSetting is the paper's LLaMA-7B setting of one method, declared once
// for Table 1, Fig. 1 and Fig. 2: GaLore at r = 1024, APOLLO at r = 256,
// APOLLO-Mini at r = 1, layer-wise gradient updates (Lv et al., 2023) for
// the low-rank methods. prof carries the catalogue name and rank (0 = hidden/4).
type paperSetting struct {
	prof      cluster.OptimizerProfile
	layerWise bool
	fig1      bool // a row of Fig. 1 and Fig. 2: the simulator has its step-time profile
	int8      bool // Fig. 1 (middle) also shows its Q- variant (INT8 weights)
}

var paper7B = []paperSetting{
	{prof: cluster.ProfileAdamW(), fig1: true},
	{prof: cluster.ProfileGaLore(1024, 200), layerWise: true, fig1: true},
	{prof: cluster.ProfileFira(1024, 200), layerWise: true},
	{prof: cluster.ProfileAPOLLO(256), layerWise: true, fig1: true, int8: true},
	{prof: cluster.ProfileAPOLLOMini(), layerWise: true, fig1: true, int8: true},
	{prof: cluster.OptimizerProfile{Name: "8-bit Adam"}},
	{prof: cluster.OptimizerProfile{Name: "8-bit GaLore", Rank: 1024}, layerWise: true},
}

// on returns w with the setting's gradient strategy.
func (s paperSetting) on(w cluster.Workload) cluster.Workload {
	w.LayerWise = s.layerWise
	return w
}

func runTable1(ctx *RunContext) error {
	ctx.Printf("Table 1 — optimizer states for one m×n weight (m ≤ n), rank r\n")
	ctx.Printf("%-12s %-12s %-10s %-10s %-10s %-8s\n", "Method", "States", "FullRankG", "FullRankW", "Pretrain", "noSVD")
	for _, r := range memmodel.Table1() {
		ctx.Printf("%-12s %-12s %-10v %-10v %-10v %-8v\n",
			r.Method, r.StateFormula, r.FullRankGrad, r.FullRankWts, r.PreTraining, r.NoSVD)
	}
	ctx.Printf("\nInstantiated on LLaMA-7B shapes (BF16 state units, paper convention):\n")
	cfg, err := memmodel.ConfigByName("7B")
	if err != nil {
		return err
	}
	ctx.Printf("%-14s %-8s %-10s %s\n", "Method", "Rank", "States", "paper")
	paper := map[string]string{
		"AdamW": "≈28G (intro)", "APOLLO": "1.6G (Table 3)", "APOLLO-Mini": "≈0G (Table 3)",
		"8-bit Adam": "13G (Table 3)", "8-bit GaLore": "4.9G (Table 3)",
	}
	for _, s := range paper7B {
		m, err := MethodByName(s.prof.Name)
		if err != nil {
			return err
		}
		rank := m.Rank(s.prof.Rank, cfg.Hidden)
		gib := memmodel.GiB(memmodel.OptimizerStateBytes(cfg, *m.Mem, rank))
		ctx.Printf("%-14s %-8d %-10.2fG %s\n", m.Name, rank, gib, paper[m.Name])
	}
	return nil
}

func runFig1Memory(ctx *RunContext) error {
	cfg, err := memmodel.ConfigByName("7B")
	if err != nil {
		return err
	}
	ctx.Printf("Fig. 1 (middle) — 7B single-batch memory breakdown (GiB), seq 256,\n")
	ctx.Printf("layer-wise gradient updates for all low-rank methods (Lv et al., 2023)\n\n")
	ctx.Printf("%-16s %8s %8s %8s %8s %8s\n", "Method", "Weights", "Grads", "States", "Act", "Total")
	for _, int8W := range []bool{false, true} {
		for _, s := range paper7B {
			if !s.fig1 || int8W && !s.int8 {
				continue
			}
			name := s.prof.Name
			if int8W {
				name = "Q-" + name
			}
			b := memmodel.Compute(memmodel.Plan{
				Config: cfg, Method: s.prof.Method, Rank: s.prof.Rank,
				SeqLen: 256, MicroBatch: 1,
				LayerWiseGrad: s.layerWise, ActivationCkpt: true, Int8Weights: int8W,
			})
			ctx.Printf("%-16s %8.2f %8.2f %8.2f %8.2f %8.2f\n",
				name, memmodel.GiB(b.Weights), memmodel.GiB(b.Gradients),
				memmodel.GiB(b.States), memmodel.GiB(b.Activations), memmodel.GiB(b.Total()))
		}
	}
	ctx.Printf("\npaper: Q-APOLLO-Mini trains 7B in <12G; AdamW needs ≈58G+.\n")
	return nil
}

func runFig1Throughput(ctx *RunContext) error {
	cfg, err := memmodel.ConfigByName("7B")
	if err != nil {
		return err
	}
	w := cluster.Workload{
		Config: cfg, Dev: cluster.A100_80G(), World: 8,
		SeqLen: 1024, GlobalBatch: 512,
	}
	ctx.Printf("Fig. 1 (right) — simulated 8×A100-80G training throughput, 7B\n\n")
	var base float64
	for _, s := range paper7B {
		if !s.fig1 {
			continue
		}
		tps, micro := cluster.Throughput(s.on(w), s.prof)
		if base == 0 { //apollo:exactfloat zero marks the unset first-iteration baseline
			base = tps
		}
		ctx.Printf("%-12s micro-batch %2d  %8.0f tok/s  (%.2fx AdamW)\n", s.prof.Name, micro, tps, tps/base)
	}
	ctx.Printf("\npaper: APOLLO(-Mini) reach ≈3x AdamW by fitting 4x larger batches.\n")
	return nil
}

func runFig9(ctx *RunContext) error {
	cfg, err := memmodel.ConfigByName("1B")
	if err != nil {
		return err
	}
	w := cluster.Workload{Config: cfg, Dev: cluster.A100_80G(), World: 1, SeqLen: 256, GlobalBatch: 16, Ckpt: true}
	galore := cluster.SimulateTimeline(w, cluster.ProfileGaLore(512, 10), 40)
	apollo := cluster.SimulateTimeline(w, cluster.ProfileAPOLLO(512), 40)
	ctx.Printf("Fig. 9 — 1B throughput timeline (tokens/s); SVD refresh every 10 steps\n\n")
	ctx.Printf("%6s %14s %14s\n", "step", "GaLore", "APOLLO")
	for i := 0; i < len(galore); i += 2 {
		ctx.Printf("%6d %14.0f %14.0f\n", i, galore[i].TokensPerS, apollo[i].TokensPerS)
	}
	ctx.Printf("\npaper: GaLore's throughput collapses at every SVD refresh (10 min on 7B);\nAPOLLO's trace is flat because reseeding a random projection is free.\n")
	return nil
}

func runTable7(ctx *RunContext) error {
	ctx.Printf("Table 7 — optimizer step time, measured on CPU at proxy scale\n")
	ctx.Printf("(paper, A100: 1B → AdamW 0.036s, APOLLO 0.051s, Mini 0.048s, GaLore 0.371s, Fira 0.421s;\n")
	ctx.Printf(" 7B → AdamW 0.173s, APOLLO 0.159s, Mini 0.142s, GaLore 2.874s, Fira 3.086s)\n\n")
	methods := []string{"AdamW", "APOLLO", "APOLLO-Mini", "GaLore", "Fira"}
	for _, proxyName := range []string{"1B", "7B"} {
		proxy, err := ProxyByName(proxyName)
		if err != nil {
			return err
		}
		ctx.Printf("proxy-%s:\n", proxyName)
		for _, m := range methods {
			model := proxy.NewProxyModel(ctx.Seed)
			method, err := MethodByName(m)
			if err != nil {
				return err
			}
			opt := method.New(optim.Hyper{LR: proxy.LR}, method.Rank(0, proxy.Model.Dim), ctx.Seed)
			rng := tensor.NewRNG(ctx.Seed + 9)
			params := model.Params().List()
			fill := func() {
				for _, p := range params {
					for i := range p.Grad.Data {
						p.Grad.Data[i] = rng.NormFloat32()
					}
				}
			}
			fill()
			opt.Step(params) // warm up state allocation
			iters := ctx.steps(40)
			start := time.Now()
			for i := 0; i < iters; i++ {
				opt.Step(params)
			}
			per := time.Since(start).Seconds() / float64(iters)
			ctx.Printf("  %-12s %10.3f ms/step\n", m, per*1000)
		}
	}
	ctx.Printf("\nshape to verify: GaLore/Fira ≫ AdamW ≈ APOLLO ≈ Mini (SVD amortized per step).\n")
	return nil
}

func runTable11(ctx *RunContext) error {
	ctx.Printf("Table 11 — paper LLaMA configs and the CPU proxies used here\n\n")
	ctx.Printf("%-6s %7s %7s %6s %7s %8s %9s\n", "size", "hidden", "inter", "heads", "layers", "steps", "params")
	for _, c := range memmodel.PaperConfigs() {
		ctx.Printf("%-6s %7d %7d %6d %7d %8d %8.2fB\n",
			c.Name, c.Hidden, c.Inter, c.Heads, c.Layers, c.Steps, float64(c.NumParams())/1e9)
	}
	ctx.Printf("\nproxies (same family, CPU-trainable):\n")
	ctx.Printf("%-6s %7s %7s %6s %7s %8s %9s\n", "size", "dim", "hidden", "heads", "layers", "steps", "params")
	for _, p := range Proxies() {
		ctx.Printf("%-6s %7d %7d %6d %7d %8d %9d\n",
			p.Name, p.Model.Dim, p.Model.Hidden, p.Model.Heads, p.Model.Layers, p.Steps, p.Model.NumParams())
	}
	ctx.Printf("\nschedule: 10%% warmup + cosine to 10%% of peak (Appendix A.4); NL γ=1.01.\n")
	return nil
}

func runScaling13B(ctx *RunContext) error {
	cfg13, err := memmodel.ConfigByName("13B")
	if err != nil {
		return err
	}
	cfg7, _ := memmodel.ConfigByName("7B")
	a100 := cluster.A100_80G()
	ctx.Printf("Section 5.3 feasibility claims\n\n")

	w13 := cluster.Workload{Config: cfg13, Dev: a100, World: 1, SeqLen: 256, GlobalBatch: 8, Ckpt: true}
	w13LW := w13
	w13LW.LayerWise = true
	ctx.Printf("13B on one A100-80G (naive DDP per GPU):\n")
	ctx.Printf("  %s\n", cluster.Describe(w13, cluster.ProfileAdamW()))
	ctx.Printf("  %s\n", cluster.Describe(w13LW, cluster.ProfileAPOLLOMini()))

	w7 := cluster.Workload{
		Config: cfg7, Dev: cluster.RTX4090(), World: 1, SeqLen: 256, GlobalBatch: 1,
		Ckpt: true, LayerWise: true, Int8Weights: true,
	}
	b := memmodel.Compute(memmodel.Plan{
		Config: cfg7, Method: memmodel.MethodAPOLLOMini, Rank: 1,
		SeqLen: 256, MicroBatch: 1, Int8Weights: true, LayerWiseGrad: true, ActivationCkpt: true,
	})
	ctx.Printf("\n7B with INT8 weights + APOLLO-Mini + layer-wise grads: %.2f GiB total", memmodel.GiB(b.Total()))
	if cluster.Fits(w7, cluster.ProfileAPOLLOMini()) {
		ctx.Printf(" → fits a 24G consumer GPU (paper: <12G)\n")
	} else {
		ctx.Printf(" → DOES NOT FIT (unexpected)\n")
	}

	// The same 7B under ZeRO: sharding buys per-GPU state memory and a
	// shorter optimizer pass, paid for in broadcast bandwidth.
	const world = 4
	ctx.Printf("\nsimulated 7B on %d A100s (AdamW profile, seq 1024):\n", world)
	for _, zs := range []bool{false, true} {
		w := cluster.Workload{
			Config: cfg7, Dev: a100, World: world,
			SeqLen: 1024, GlobalBatch: 64, ZeroShard: zs,
		}
		prof := cluster.ProfileAdamW()
		micro := cluster.MaxMicroBatch(w, prof)
		label, shards := "plain DDP  ", 1
		if zs {
			label, shards = "ZeRO-shard ", world
		}
		if micro == 0 {
			ctx.Printf("  %s OOM at micro-batch 1\n", label)
			continue
		}
		st := cluster.StepTime(w, prof, micro)
		states := memmodel.ShardedOptimizerStateBytes(cfg7, memmodel.MethodAdamW, cfg7.DefaultRank(), shards)
		ctx.Printf("  %s micro=%-3d step %6.3fs (opt %.4f, comm %.4f)  states/GPU %.2f GiB\n",
			label, micro, st.Total(), st.Optimizer, st.Comm, memmodel.GiB(states))
	}
	return nil
}
