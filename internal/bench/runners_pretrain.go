package bench

import (
	"math"

	"apollo/internal/cluster"
	"apollo/internal/core"
	"apollo/internal/linalg"
	"apollo/internal/memmodel"
	"apollo/internal/obs"
	"apollo/internal/obs/runlog"
	"apollo/internal/optim"
	"apollo/internal/train"
)

func init() {
	register(Experiment{
		ID:       "table2",
		Title:    "Pre-training perplexity across methods and model sizes",
		PaperRef: "Table 2",
		Run:      runTable2,
	})
	register(Experiment{
		ID:       "table3",
		Title:    "7B-scale pre-training checkpoints vs 8-bit baselines",
		PaperRef: "Table 3",
		Run:      runTable3,
	})
	register(Experiment{
		ID:       "fig2",
		Title:    "7B validation perplexity vs wall-clock under a time budget",
		PaperRef: "Fig. 2",
		Run:      runFig2,
	})
	register(Experiment{
		ID:       "fig5",
		Title:    "SVD vs random projection; rank sweep",
		PaperRef: "Fig. 5 (a-d)",
		Run:      runFig5,
	})
	register(Experiment{
		ID:       "fig6",
		Title:    "350M training curve: early/middle/late dynamics",
		PaperRef: "Fig. 6",
		Run:      runFig6,
	})
	register(Experiment{
		ID:       "fig7",
		Title:    "Long-context pre-training",
		PaperRef: "Fig. 7",
		Run:      runFig7,
	})
	register(Experiment{
		ID:       "table8",
		Title:    "INT8 weight quantization (Q- variants)",
		PaperRef: "Table 8",
		Run:      runTable8,
	})
	register(Experiment{
		ID:       "table9",
		Title:    "Scaling-factor granularity ablation (channel vs tensor)",
		PaperRef: "Table 9",
		Run:      runTable9,
	})
}

// methodLRScale mirrors the paper's learning-rate recipe: the low-rank
// family inherits GaLore's higher LR (0.01 vs the ~1e-3 tuned AdamW
// baseline, Appendix A.4), which the shared proxy.LR does not reflect. The
// 4× multiplier was chosen by a sweep at proxy scale.
func methodLRScale(method string) float64 {
	switch method {
	case "GaLore", "GaLore-RP", "Fira", "Flora", "8-bit GaLore",
		"APOLLO", "APOLLO w. SVD", "APOLLO-Tensor", "APOLLO-Mini",
		"Q-APOLLO", "Q-APOLLO-Mini", "Q-GaLore":
		return 4
	default:
		return 1
	}
}

// pretrainOne trains a fresh proxy model with the named optimizer and
// returns the result. rank ≤ 0 resolves to dim/4. lrScale multiplies the
// method's recipe LR (the Mini‡ row uses 2×).
func pretrainOne(ctx *RunContext, proxy Proxy, method string, rank int, steps int, seq int, lrScale float64) (train.Result, error) {
	if rank <= 0 {
		rank = proxy.DefaultRank()
	}
	if seq <= 0 {
		seq = proxy.Seq
	}
	if lrScale == 0 { //apollo:exactfloat zero is the unset-flag sentinel; default fills only untouched fields
		lrScale = 1
	}
	lr := proxy.LR * lrScale * methodLRScale(method)
	opt, err := BuildOptimizer(method, lr, rank, ctx.Seed)
	if err != nil {
		return train.Result{}, err
	}
	corpus, err := NewCorpus(ctx.Seed + 17)
	if err != nil {
		return train.Result{}, err
	}
	model := proxy.NewProxyModel(ctx.Seed + 33)
	clip := 1.0
	switch method {
	case "APOLLO", "APOLLO w. SVD", "APOLLO-Mini", "APOLLO-Tensor", "Q-APOLLO", "Q-APOLLO-Mini":
		clip = 0 // APOLLO relies on the norm-growth limiter
	}
	evalEvery := steps / 10
	if evalEvery < 1 {
		evalEvery = 1
	}
	pcfg := train.PretrainConfig{
		Batch: proxy.Batch, Seq: seq, Steps: steps,
		EvalEvery: evalEvery, EvalBatches: 4,
		Schedule: optim.NewWarmupCosine(lr, steps), ClipNorm: clip,
	}
	// With a run root configured, every experiment training run leaves a
	// ledger entry: step series for apollo-runs diff, watchdog alerts for
	// post-hoc triage. Observation only — results are bit-identical either
	// way.
	var ledger *runlog.Run
	if ctx.RunRoot != "" {
		ledger, err = runlog.Create(ctx.RunRoot, runlog.Manifest{
			ID:      runlog.NewID(proxy.Name, method),
			Command: "apollo-bench",
			Config: map[string]any{
				"size": proxy.Name, "method": method, "rank": rank,
				"steps": steps, "seq": seq, "lr": lr,
			},
			Optimizer: method,
			Seed:      ctx.Seed,
		})
		if err != nil {
			return train.Result{}, err
		}
		pcfg.Telemetry = obs.NewTrainRecorder(ledger.Events())
		pcfg.Watchdog = runlog.NewWatchdog(runlog.WatchdogConfig{Emit: ledger.Alert})
	}
	res := train.Pretrain(model, opt, corpus, pcfg)
	if ledger != nil {
		status, fin := res.Final()
		obs.CountWriteError(ledger.Finalize(status, fin))
	}
	return res, nil
}

func runTable2(ctx *RunContext) error {
	methods := []struct {
		name    string
		rank    func(p Proxy) int
		lrScale float64
		label   string
	}{
		{"AdamW", func(p Proxy) int { return 0 }, 1, "AdamW"},
		{"Low-Rank", func(p Proxy) int { return 0 }, 1, "Low-Rank"},
		{"LoRA", func(p Proxy) int { return 0 }, 1, "LoRA"},
		{"ReLoRA", func(p Proxy) int { return 0 }, 1, "ReLoRA"},
		{"GaLore", func(p Proxy) int { return 0 }, 1, "GaLore"},
		{"Fira", func(p Proxy) int { return 0 }, 1, "Fira"},
		{"APOLLO w. SVD", func(p Proxy) int { return 0 }, 1, "APOLLO w. SVD"},
		{"APOLLO", func(p Proxy) int { return 0 }, 1, "APOLLO"},
		{"APOLLO", func(p Proxy) int { return max(1, p.DefaultRank()/2) }, 1, "APOLLO (r/2)"},
		{"APOLLO-Mini", func(p Proxy) int { return 1 }, 1, "APOLLO-Mini"},
		{"APOLLO-Mini", func(p Proxy) int { return 1 }, 1.5, "APOLLO-Mini 2xLR"},
	}
	paper := map[string]map[string]float64{
		"AdamW":            {"60M": 34.06, "130M": 25.08, "350M": 18.80, "1B": 15.56},
		"Low-Rank":         {"60M": 78.18, "130M": 45.51, "350M": 37.41, "1B": 142.53},
		"LoRA":             {"60M": 34.99, "130M": 33.92, "350M": 25.58, "1B": 19.21},
		"ReLoRA":           {"60M": 37.04, "130M": 29.37, "350M": 29.08, "1B": 18.33},
		"GaLore":           {"60M": 34.88, "130M": 25.36, "350M": 18.95, "1B": 15.64},
		"Fira":             {"60M": 31.06, "130M": 22.73, "350M": 17.03, "1B": 14.31},
		"APOLLO w. SVD":    {"60M": 31.26, "130M": 22.84, "350M": 16.67, "1B": 14.10},
		"APOLLO":           {"60M": 31.55, "130M": 22.94, "350M": 16.85, "1B": 14.20},
		"APOLLO (r/2)":     {"60M": 31.26, "130M": 23.18, "350M": 16.98, "1B": 14.25},
		"APOLLO-Mini":      {"60M": 31.93, "130M": 23.53, "350M": 17.18, "1B": 14.17},
		"APOLLO-Mini 2xLR": {"60M": 30.95, "130M": 22.85, "350M": 16.63, "1B": 13.95},
	}
	sizes := []string{"60M", "130M", "350M", "1B"}
	ctx.Printf("Table 2 — proxy pre-training validation perplexity (paper values in parens)\n")
	ctx.Printf("%-18s", "Method")
	for _, s := range sizes {
		ctx.Printf(" %18s", s)
	}
	ctx.Printf("   states(7B-scale)\n")
	for _, m := range methods {
		ctx.Printf("%-18s", m.label)
		for _, size := range sizes {
			proxy, err := ProxyByName(size)
			if err != nil {
				return err
			}
			res, err := pretrainOne(ctx, proxy, m.name, m.rank(proxy), ctx.steps(proxy.Steps), 0, m.lrScale)
			if err != nil {
				return err
			}
			ctx.Printf(" %8.2f (%7.2f)", res.FinalValPPL, paper[m.label][size])
		}
		// Memory column at paper scale from the analytic model.
		cfg, _ := memmodel.ConfigByName("1B")
		var mm memmodel.Method
		switch m.label {
		case "AdamW", "Low-Rank", "LoRA", "ReLoRA":
			mm = memmodel.MethodAdamW
		case "GaLore":
			mm = memmodel.MethodGaLore
		case "Fira":
			mm = memmodel.MethodFira
		case "APOLLO-Mini", "APOLLO-Mini 2xLR":
			mm = memmodel.MethodAPOLLOMini
		default:
			mm = memmodel.MethodAPOLLO
		}
		rank := cfg.DefaultRank()
		if m.label == "APOLLO (r/2)" {
			rank /= 2
		}
		ctx.Printf("   %.2fG\n", memmodel.GiB(memmodel.OptimizerStateBytes(cfg, mm, rank)+float64(cfg.NumParams())*memmodel.BytesBF16))
	}
	ctx.Printf("\nshape to verify: APOLLO family ≤ AdamW; GaLore ≈ AdamW; Low-Rank/LoRA/ReLoRA worse;\nAPOLLO robust to rank halving; Mini competitive at rank 1.\n")
	return nil
}

func runTable3(ctx *RunContext) error {
	proxy, err := ProxyByName("7B")
	if err != nil {
		return err
	}
	steps := ctx.steps(proxy.Steps * 2)
	methods := []string{"8-bit Adam", "8-bit GaLore", "APOLLO", "APOLLO-Mini"}
	paper := map[string][4]float64{
		"8-bit Adam":   {18.09, 15.47, 14.83, 14.61},
		"8-bit GaLore": {17.94, 15.39, 14.95, 14.65},
		"APOLLO":       {17.55, 14.39, 13.23, 13.02},
		"APOLLO-Mini":  {18.03, 14.60, 13.32, 13.09},
	}
	ctx.Printf("Table 3 — proxy-7B pre-training, ppl at 25/50/75/100%% of %d steps\n", steps)
	ctx.Printf("(paper columns: 40K/80K/120K/150K steps)\n\n")
	ctx.Printf("%-14s %10s %10s %10s %10s   paper@150K\n", "Optimizer", "25%", "50%", "75%", "100%")
	for _, m := range methods {
		rank := proxy.DefaultRank()
		if m == "APOLLO" {
			rank = proxy.Model.Dim / 2 // paper uses a larger rank (256 vs 1024 default) at 7B
		}
		res, err := pretrainOne(ctx, proxy, m, rank, steps, 0, 1)
		if err != nil {
			return err
		}
		at := func(frac float64) float64 {
			target := int(frac * float64(steps))
			bestPPL := math.Inf(1)
			bestDist := math.MaxInt64
			for _, pt := range res.Series {
				d := abs(pt.Step - target)
				if d < bestDist {
					bestDist = d
					bestPPL = pt.ValPPL
				}
			}
			return bestPPL
		}
		pv := paper[m]
		ctx.Printf("%-14s %10.2f %10.2f %10.2f %10.2f   %.2f\n", m, at(0.25), at(0.5), at(0.75), at(1.0), pv[3])
	}
	ctx.Printf("\nshape to verify: APOLLO(-Mini) below both 8-bit baselines by the end.\n")
	return nil
}

func runFig2(ctx *RunContext) error {
	// Wall-clock axis from the cluster simulator at true 7B scale; quality
	// axis from proxy-7B training. Each method advances at its own
	// steps/second, so slower methods see fewer steps in the same budget —
	// exactly the paper's half-month experiment.
	cfg7, err := memmodel.ConfigByName("7B")
	if err != nil {
		return err
	}
	w := cluster.Workload{Config: cfg7, Dev: cluster.A100_80G(), World: 8, SeqLen: 1024, GlobalBatch: 512}
	wLW := w
	wLW.LayerWise = true
	profiles := []struct {
		method string
		prof   cluster.OptimizerProfile
		work   cluster.Workload
	}{
		{"AdamW", cluster.ProfileAdamW(), w},
		{"GaLore", cluster.ProfileGaLore(1024, 200), wLW},
		{"APOLLO", cluster.ProfileAPOLLO(256), wLW},
		{"APOLLO-Mini", cluster.ProfileAPOLLOMini(), wLW},
	}
	proxy, err := ProxyByName("7B")
	if err != nil {
		return err
	}
	budgetSteps := ctx.steps(proxy.Steps * 2) // APOLLO's step count within budget
	apolloStep := cluster.StepTime(wLW, cluster.ProfileAPOLLO(256), cluster.MaxMicroBatch(wLW, cluster.ProfileAPOLLO(256))).Total()
	budgetSeconds := float64(budgetSteps) * apolloStep

	ctx.Printf("Fig. 2 — proxy-7B quality vs simulated wall-clock (budget = %.1f sim-days)\n\n", budgetSeconds/86400*100) // scaled
	ctx.Printf("%-12s %12s %12s %12s\n", "Method", "steps-run", "final-ppl", "sim-days")
	for _, p := range profiles {
		micro := cluster.MaxMicroBatch(p.work, p.prof)
		if micro == 0 {
			ctx.Printf("%-12s %12s\n", p.method, "OOM")
			continue
		}
		stepSec := cluster.StepTime(p.work, p.prof, micro).Total()
		steps := int(budgetSeconds / stepSec)
		if steps > budgetSteps {
			steps = budgetSteps
		}
		if steps < 10 {
			steps = 10
		}
		res, err := pretrainOne(ctx, proxy, p.method, 0, steps, 0, 1)
		if err != nil {
			return err
		}
		ctx.Printf("%-12s %12d %12.2f %12.1f\n", p.method, steps, res.FinalValPPL, float64(steps)*stepSec/86400*100)
	}
	ctx.Printf("\nshape to verify: APOLLO-family completes ≈3x more steps than AdamW in the\nsame budget and ends at the lowest perplexity (paper: only APOLLO finishes).\n")
	return nil
}

func runFig5(ctx *RunContext) error {
	ctx.Printf("Fig. 5 (a-c) — SVD vs random projection, final val perplexity\n\n")
	ctx.Printf("%-6s %14s %14s %14s %14s %12s %12s %10s\n",
		"size", "GaLore(SVD)", "GaLore(RP)", "APOLLO(SVD)", "APOLLO(RP)", "Mini(SVD)", "Mini(RP)", "AdamW")
	for _, size := range []string{"60M", "130M", "350M"} {
		proxy, err := ProxyByName(size)
		if err != nil {
			return err
		}
		steps := ctx.steps(proxy.Steps)
		run := func(method string, rank int) (float64, error) {
			res, err := pretrainOne(ctx, proxy, method, rank, steps, 0, 1)
			return res.FinalValPPL, err
		}
		gs, err := run("GaLore", 0)
		if err != nil {
			return err
		}
		gr, err := run("GaLore-RP", 0)
		if err != nil {
			return err
		}
		as, err := run("APOLLO w. SVD", 0)
		if err != nil {
			return err
		}
		ar, err := run("APOLLO", 0)
		if err != nil {
			return err
		}
		msv, err := miniSVD(ctx, proxy, steps)
		if err != nil {
			return err
		}
		mr, err := run("APOLLO-Mini", 1)
		if err != nil {
			return err
		}
		aw, err := run("AdamW", 0)
		if err != nil {
			return err
		}
		ctx.Printf("%-6s %14.2f %14.2f %14.2f %14.2f %12.2f %12.2f %10.2f\n", size, gs, gr, as, ar, msv, mr, aw)
	}
	ctx.Printf("\nshape to verify: GaLore degrades badly under RP; APOLLO(-Mini) barely changes.\n\n")

	// Fig. 5d: rank sweep on the 60M proxy.
	proxy, err := ProxyByName("60M")
	if err != nil {
		return err
	}
	steps := ctx.steps(proxy.Steps)
	ranks := []int{1, 2, 4, 8}
	ctx.Printf("Fig. 5 (d) — rank sweep, 60M proxy (dim %d; dim/4 = %d)\n\n", proxy.Model.Dim, proxy.DefaultRank())
	ctx.Printf("%-6s %10s %10s %10s %12s\n", "rank", "GaLore", "Fira", "APOLLO", "APOLLO-Mini")
	awRes, err := pretrainOne(ctx, proxy, "AdamW", 0, steps, 0, 1)
	if err != nil {
		return err
	}
	for _, r := range ranks {
		row := make([]float64, 0, 4)
		for _, m := range []string{"GaLore", "Fira", "APOLLO"} {
			res, err := pretrainOne(ctx, proxy, m, r, steps, 0, 1)
			if err != nil {
				return err
			}
			row = append(row, res.FinalValPPL)
		}
		mini, err := miniAtRank(ctx, proxy, r, steps)
		if err != nil {
			return err
		}
		ctx.Printf("%-6d %10.2f %10.2f %10.2f %12.2f\n", r, row[0], row[1], row[2], mini)
	}
	ctx.Printf("full-rank AdamW reference: %.2f\n", awRes.FinalValPPL)
	ctx.Printf("\nshape to verify: GaLore collapses at low rank; APOLLO degrades gently;\nAPOLLO-Mini holds even at rank 1.\n")
	return nil
}

// miniSVD runs APOLLO-Mini with an SVD projection (Fig. 5's Mini-SVD bar).
// The α=√128 default compensates the √n norm deficit of a *random* rank-1
// projection (Theorem A.4); an SVD rank-1 projection captures the dominant
// gradient energy with no such deficit, so the SVD variant runs at α=1 —
// leaving √128 in place over-scales the update by ~√n and diverges.
func miniSVD(ctx *RunContext, proxy Proxy, steps int) (float64, error) {
	corpus, err := NewCorpus(ctx.Seed + 17)
	if err != nil {
		return 0, err
	}
	model := proxy.NewProxyModel(ctx.Seed + 33)
	lr := proxy.LR * methodLRScale("APOLLO-Mini")
	opt := core.New(optim.Hyper{LR: lr}, core.Config{
		Rank: 1, Granularity: core.Tensor, Scale: 1, Projection: linalg.SVDProjection, Seed: ctx.Seed, UpdateGap: 50,
	})
	res := train.Pretrain(model, opt, corpus, train.PretrainConfig{
		Batch: proxy.Batch, Seq: proxy.Seq, Steps: steps,
		Schedule: optim.NewWarmupCosine(lr, steps),
	})
	return res.FinalValPPL, nil
}

// miniAtRank runs the tensor-granularity variant at an arbitrary rank
// (Fig. 5d's APOLLO-Mini line).
func miniAtRank(ctx *RunContext, proxy Proxy, rank, steps int) (float64, error) {
	corpus, err := NewCorpus(ctx.Seed + 17)
	if err != nil {
		return 0, err
	}
	model := proxy.NewProxyModel(ctx.Seed + 33)
	lr := proxy.LR * methodLRScale("APOLLO-Mini")
	opt := core.New(optim.Hyper{LR: lr}, core.Config{
		Rank: rank, Granularity: core.Tensor, Scale: math.Sqrt(128 / float64(rank)), Seed: ctx.Seed, UpdateGap: 50,
	})
	res := train.Pretrain(model, opt, corpus, train.PretrainConfig{
		Batch: proxy.Batch, Seq: proxy.Seq, Steps: steps,
		Schedule: optim.NewWarmupCosine(lr, steps),
	})
	return res.FinalValPPL, nil
}

func runFig6(ctx *RunContext) error {
	proxy, err := ProxyByName("350M")
	if err != nil {
		return err
	}
	steps := ctx.steps(proxy.Steps)
	methods := []string{"AdamW", "GaLore", "Fira", "APOLLO"}
	series := map[string][]train.Metric{}
	for _, m := range methods {
		res, err := pretrainOne(ctx, proxy, m, 0, steps, 0, 1)
		if err != nil {
			return err
		}
		series[m] = res.Series
	}
	ctx.Printf("Fig. 6 — proxy-350M validation perplexity across training\n\n")
	ctx.Printf("%8s", "step")
	for _, m := range methods {
		ctx.Printf(" %10s", m)
	}
	ctx.Printf("\n")
	n := len(series[methods[0]])
	for i := 0; i < n; i++ {
		ctx.Printf("%8d", series[methods[0]][i].Step)
		for _, m := range methods {
			if i < len(series[m]) {
				ctx.Printf(" %10.2f", series[m][i].ValPPL)
			}
		}
		ctx.Printf("\n")
	}
	ctx.Printf("\nshape to verify: Fira leads early; APOLLO catches up and matches or\novertakes late (paper: crossover in the late stage).\n")
	return nil
}

func runFig7(ctx *RunContext) error {
	proxy, err := ProxyByName("350M")
	if err != nil {
		return err
	}
	longSeq := proxy.Seq * 4 // the paper's 4× context extension
	steps := ctx.steps(proxy.Steps)
	ctx.Printf("Fig. 7 — long-context pre-training (seq %d = 4x default)\n\n", longSeq)
	ctx.Printf("%-22s %12s\n", "Method", "final ppl")
	best := map[string]float64{}
	for _, lr := range []float64{1, 2} { // AdamW LR sweep (paper sweeps 5 values)
		res, err := pretrainOne(ctx, proxy, "AdamW", 0, steps, longSeq, lr)
		if err != nil {
			return err
		}
		key := "AdamW (LR sweep)"
		if cur, ok := best[key]; !ok || res.FinalValPPL < cur {
			best[key] = res.FinalValPPL
		}
	}
	ctx.Printf("%-22s %12.2f\n", "AdamW (LR sweep)", best["AdamW (LR sweep)"])
	res, err := pretrainOne(ctx, proxy, "APOLLO", 0, steps, longSeq, 1)
	if err != nil {
		return err
	}
	ctx.Printf("%-22s %12.2f\n", "APOLLO", res.FinalValPPL)
	res, err = pretrainOne(ctx, proxy, "APOLLO-Mini", 1, steps, longSeq, 1)
	if err != nil {
		return err
	}
	ctx.Printf("%-22s %12.2f\n", "APOLLO-Mini", res.FinalValPPL)
	ctx.Printf("\nshape to verify: APOLLO(-Mini) match or beat the swept AdamW with 1/8 to\n1/1024 of its optimizer memory (paper: they win late in training).\n")
	return nil
}

func runTable8(ctx *RunContext) error {
	paper := map[string]map[string]float64{
		"AdamW":         {"60M": 34.06, "130M": 25.08, "350M": 18.80},
		"GaLore":        {"60M": 34.88, "130M": 25.36, "350M": 18.95},
		"Q-GaLore":      {"60M": 34.88, "130M": 25.53, "350M": 19.79},
		"APOLLO":        {"60M": 31.55, "130M": 22.94, "350M": 16.85},
		"Q-APOLLO":      {"60M": 31.97, "130M": 24.16, "350M": 18.79},
		"APOLLO-Mini":   {"60M": 31.93, "130M": 23.84, "350M": 17.18},
		"Q-APOLLO-Mini": {"60M": 33.05, "130M": 24.70, "350M": 18.90},
	}
	methods := []string{"AdamW", "GaLore", "Q-GaLore", "APOLLO", "Q-APOLLO", "APOLLO-Mini", "Q-APOLLO-Mini"}
	sizes := []string{"60M", "130M", "350M"}
	ctx.Printf("Table 8 — INT8 weight quantization (group size 128), val perplexity\n\n")
	ctx.Printf("%-16s", "Method")
	for _, s := range sizes {
		ctx.Printf(" %18s", s)
	}
	ctx.Printf("\n")
	for _, m := range methods {
		ctx.Printf("%-16s", m)
		for _, size := range sizes {
			proxy, err := ProxyByName(size)
			if err != nil {
				return err
			}
			rank := 0
			if m == "APOLLO-Mini" || m == "Q-APOLLO-Mini" {
				rank = 1
			}
			res, err := pretrainOne(ctx, proxy, m, rank, ctx.steps(proxy.Steps), 0, 1)
			if err != nil {
				return err
			}
			ctx.Printf(" %8.2f (%7.2f)", res.FinalValPPL, paper[m][size])
		}
		ctx.Printf("\n")
	}
	ctx.Printf("\nshape to verify: Q- variants lose a little vs their fp parents but\nQ-APOLLO stays below GaLore and near/below AdamW.\n")
	return nil
}

func runTable9(ctx *RunContext) error {
	paper := map[string]map[string]float64{
		"APOLLO w. SVD / channel": {"60M": 31.26, "130M": 22.84, "350M": 16.67},
		"APOLLO w. SVD / tensor":  {"60M": 31.77, "130M": 23.86, "350M": 16.90},
		"APOLLO / channel":        {"60M": 31.55, "130M": 22.94, "350M": 16.85},
		"APOLLO / tensor":         {"60M": 32.10, "130M": 23.82, "350M": 17.00},
	}
	rows := []struct {
		label  string
		method string
	}{
		{"APOLLO w. SVD / channel", "APOLLO w. SVD"},
		{"APOLLO w. SVD / tensor", "svd-tensor"},
		{"APOLLO / channel", "APOLLO"},
		{"APOLLO / tensor", "APOLLO-Tensor"},
	}
	sizes := []string{"60M", "130M", "350M"}
	ctx.Printf("Table 9 — scaling-factor granularity at rank dim/4, val perplexity\n\n")
	ctx.Printf("%-26s", "Variant")
	for _, s := range sizes {
		ctx.Printf(" %18s", s)
	}
	ctx.Printf("\n")
	for _, row := range rows {
		ctx.Printf("%-26s", row.label)
		for _, size := range sizes {
			proxy, err := ProxyByName(size)
			if err != nil {
				return err
			}
			var ppl float64
			if row.method == "svd-tensor" {
				corpus, err := NewCorpus(ctx.Seed + 17)
				if err != nil {
					return err
				}
				model := proxy.NewProxyModel(ctx.Seed + 33)
				lr := proxy.LR * methodLRScale("APOLLO-Tensor")
				opt := core.New(optim.Hyper{LR: lr}, core.Config{
					Rank: proxy.DefaultRank(), Granularity: core.Tensor, Scale: 1,
					Projection: linalg.SVDProjection, Seed: ctx.Seed, UpdateGap: 50,
				})
				res := train.Pretrain(model, opt, corpus, train.PretrainConfig{
					Batch: proxy.Batch, Seq: proxy.Seq, Steps: ctx.steps(proxy.Steps),
					Schedule: optim.NewWarmupCosine(lr, ctx.steps(proxy.Steps)),
				})
				ppl = res.FinalValPPL
			} else {
				res, err := pretrainOne(ctx, proxy, row.method, 0, ctx.steps(proxy.Steps), 0, 1)
				if err != nil {
					return err
				}
				ppl = res.FinalValPPL
			}
			ctx.Printf(" %8.2f (%7.2f)", ppl, paper[row.label][size])
		}
		ctx.Printf("\n")
	}
	ctx.Printf("\nshape to verify: channel ≈ tensor at moderate rank (both beat GaLore),\nvalidating tensor-wise scaling as sufficient at rank dim/4.\n")
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
