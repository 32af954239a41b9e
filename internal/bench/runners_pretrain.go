package bench

import (
	"cmp"
	"fmt"
	"math"

	"apollo/internal/cluster"
	"apollo/internal/data"
	"apollo/internal/memmodel"
	"apollo/internal/nn"
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

// trained is a finished run: the result, the model, and the source it trained
// on (downstream tasks must come from the distribution it was pretrained on).
type trained struct {
	train.Result
	Model  *nn.Model
	Source *data.Source
}

// pretrainOne is the one pre-training body of the paper tables: a fresh
// corpus and proxy model from the run seed, the catalogue method at its
// recipe — rank m.Rank(rank, dim), peak LR proxy.LR × m.LRScale × lrScale
// (0 = 1; the Mini‡ row uses 1.5×) under warmup-cosine, gradients clipped
// at 1 unless the method trains on its limiter. seq ≤ 0 is the proxy's.
func pretrainOne(ctx *RunContext, proxy Proxy, method string, rank, steps, seq int, lrScale float64) (trained, error) {
	m, err := MethodByName(method)
	if err != nil {
		return trained{}, err
	}
	rank = m.Rank(rank, proxy.Model.Dim)
	if seq <= 0 {
		seq = proxy.Seq
	}
	lr := proxy.LR * cmp.Or(lrScale, 1) * m.LRScale
	corpus, model, err := ctx.fresh(proxy)
	if err != nil {
		return trained{}, err
	}
	clip := 1.0
	if m.Limiter {
		clip = 0
	}
	pcfg := train.PretrainConfig{
		Batch: proxy.Batch, Seq: seq, Steps: steps,
		EvalEvery: max(1, steps/10), EvalBatches: 4,
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
			return trained{}, err
		}
		pcfg.Telemetry = obs.NewTrainRecorder(ledger.Events())
		pcfg.Watchdog = runlog.NewWatchdog(runlog.WatchdogConfig{Emit: ledger.Alert})
	}
	res := train.Pretrain(model, m.New(optim.Hyper{LR: lr}, rank, ctx.Seed), corpus, pcfg)
	if ledger != nil {
		status, fin := res.Final()
		obs.CountWriteError(ledger.Finalize(status, fin))
	}
	return trained{res, model, corpus.Source()}, nil
}

// gridRow is one row of a methods × sizes perplexity table: a catalogue
// method under the paper's label, with the paper's value for each size.
type gridRow struct {
	label, method string  // an empty label is the method's name
	halfRank      bool    // run at half the default rank (Table 2's r/2 row)
	lrScale       float64 // × the method's recipe LR; 0 = 1
	paper         []float64
	tail          string // printed after the last size
}

// pplGrid prints Tables 2, 8 and 9: every row's method trained on every
// size's proxy by pretrainOne, its final perplexity beside the paper's.
func pplGrid(ctx *RunContext, corner string, width int, sizes []string, tailHead string, rows []gridRow) error {
	ctx.Printf("%-*s", width, corner)
	for _, s := range sizes {
		ctx.Printf(" %18s", s)
	}
	ctx.Printf("%s\n", tailHead)
	for _, row := range rows {
		ctx.Printf("%-*s", width, cmp.Or(row.label, row.method))
		for i, size := range sizes {
			proxy, err := ProxyByName(size)
			if err != nil {
				return err
			}
			rank := 0
			if row.halfRank {
				rank = max(1, proxy.DefaultRank()/2)
			}
			res, err := pretrainOne(ctx, proxy, row.method, rank, ctx.steps(proxy.Steps), 0, row.lrScale)
			if err != nil {
				return err
			}
			ctx.Printf(" %8.2f (%7.2f)", res.FinalValPPL, row.paper[i])
		}
		ctx.Printf("%s\n", row.tail)
	}
	return nil
}

func runTable2(ctx *RunContext) error {
	rows := []gridRow{
		{method: "AdamW", paper: []float64{34.06, 25.08, 18.80, 15.56}},
		{method: "Low-Rank", paper: []float64{78.18, 45.51, 37.41, 142.53}},
		{method: "LoRA", paper: []float64{34.99, 33.92, 25.58, 19.21}},
		{method: "ReLoRA", paper: []float64{37.04, 29.37, 29.08, 18.33}},
		{method: "GaLore", paper: []float64{34.88, 25.36, 18.95, 15.64}},
		{method: "Fira", paper: []float64{31.06, 22.73, 17.03, 14.31}},
		{method: "APOLLO w. SVD", paper: []float64{31.26, 22.84, 16.67, 14.10}},
		{method: "APOLLO", paper: []float64{31.55, 22.94, 16.85, 14.20}},
		{label: "APOLLO (r/2)", method: "APOLLO", halfRank: true, paper: []float64{31.26, 23.18, 16.98, 14.25}},
		{method: "APOLLO-Mini", paper: []float64{31.93, 23.53, 17.18, 14.17}},
		{label: "APOLLO-Mini 2xLR", method: "APOLLO-Mini", lrScale: 1.5, paper: []float64{30.95, 22.85, 16.63, 13.95}},
	}
	// Memory column at paper scale from the analytic model. The factorized
	// baselines have no Table 1 row; they are priced at AdamW's full-size
	// states.
	cfg, err := memmodel.ConfigByName("1B")
	if err != nil {
		return err
	}
	for i, row := range rows {
		m, err := MethodByName(row.method)
		if err != nil {
			return err
		}
		mem := memmodel.MethodAdamW
		if m.Mem != nil {
			mem = *m.Mem
		}
		rank := cfg.DefaultRank()
		if row.halfRank {
			rank /= 2
		}
		rows[i].tail = fmt.Sprintf("   %.2fG", memmodel.GiB(memmodel.OptimizerStateBytes(cfg, mem, rank)+float64(cfg.NumParams())*memmodel.BytesBF16))
	}
	ctx.Printf("Table 2 — proxy pre-training validation perplexity (paper values in parens)\n")
	if err := pplGrid(ctx, "Method", 18, []string{"60M", "130M", "350M", "1B"}, "   states(7B-scale)", rows); err != nil {
		return err
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
	ranks := map[string]int{"APOLLO": proxy.Model.Dim / 2} // paper uses a larger rank (256 vs 1024 default) at 7B
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
		res, err := pretrainOne(ctx, proxy, m, ranks[m], steps, 0, 1)
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
	proxy, err := ProxyByName("7B")
	if err != nil {
		return err
	}
	budgetSteps := ctx.steps(proxy.Steps * 2) // APOLLO's step count within budget
	var budgetSeconds float64
	for _, s := range paper7B {
		if s.prof.Name == "APOLLO" {
			budgetSeconds = float64(budgetSteps) * cluster.StepTime(s.on(w), s.prof, cluster.MaxMicroBatch(s.on(w), s.prof)).Total()
		}
	}

	ctx.Printf("Fig. 2 — proxy-7B quality vs simulated wall-clock (budget = %.1f sim-days)\n\n", budgetSeconds/86400*100) // scaled
	ctx.Printf("%-12s %12s %12s %12s\n", "Method", "steps-run", "final-ppl", "sim-days")
	for _, s := range paper7B {
		if !s.fig1 {
			continue
		}
		micro := cluster.MaxMicroBatch(s.on(w), s.prof)
		if micro == 0 {
			ctx.Printf("%-12s %12s\n", s.prof.Name, "OOM")
			continue
		}
		stepSec := cluster.StepTime(s.on(w), s.prof, micro).Total()
		steps := max(10, min(budgetSteps, int(budgetSeconds/stepSec)))
		res, err := pretrainOne(ctx, proxy, s.prof.Name, 0, steps, 0, 1)
		if err != nil {
			return err
		}
		ctx.Printf("%-12s %12d %12.2f %12.1f\n", s.prof.Name, steps, res.FinalValPPL, float64(steps)*stepSec/86400*100)
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
		row := []any{size}
		for _, method := range []string{"GaLore", "GaLore-RP", "APOLLO w. SVD", "APOLLO", "APOLLO-Mini w. SVD", "APOLLO-Mini", "AdamW"} {
			res, err := pretrainOne(ctx, proxy, method, 0, ctx.steps(proxy.Steps), 0, 1)
			if err != nil {
				return err
			}
			row = append(row, res.FinalValPPL)
		}
		ctx.Printf("%-6s %14.2f %14.2f %14.2f %14.2f %12.2f %12.2f %10.2f\n", row...)
	}
	ctx.Printf("\nshape to verify: GaLore degrades badly under RP; APOLLO(-Mini) barely changes.\n\n")

	// Fig. 5d: rank sweep on the 60M proxy.
	proxy, err := ProxyByName("60M")
	if err != nil {
		return err
	}
	steps := ctx.steps(proxy.Steps)
	ctx.Printf("Fig. 5 (d) — rank sweep, 60M proxy (dim %d; dim/4 = %d)\n\n", proxy.Model.Dim, proxy.DefaultRank())
	ctx.Printf("%-6s %10s %10s %10s %12s\n", "rank", "GaLore", "Fira", "APOLLO", "APOLLO-Mini")
	awRes, err := pretrainOne(ctx, proxy, "AdamW", 0, steps, 0, 1)
	if err != nil {
		return err
	}
	for _, r := range []int{1, 2, 4, 8} {
		row := []any{r}
		for _, m := range []string{"GaLore", "Fira", "APOLLO", "APOLLO-Mini (rank r)"} {
			res, err := pretrainOne(ctx, proxy, m, r, steps, 0, 1)
			if err != nil {
				return err
			}
			row = append(row, res.FinalValPPL)
		}
		ctx.Printf("%-6d %10.2f %10.2f %10.2f %12.2f\n", row...)
	}
	ctx.Printf("full-rank AdamW reference: %.2f\n", awRes.FinalValPPL)
	ctx.Printf("\nshape to verify: GaLore collapses at low rank; APOLLO degrades gently;\nAPOLLO-Mini holds even at rank 1.\n")
	return nil
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
	best := math.Inf(1)
	for _, lr := range []float64{1, 2} { // AdamW LR sweep (paper sweeps 5 values)
		res, err := pretrainOne(ctx, proxy, "AdamW", 0, steps, longSeq, lr)
		if err != nil {
			return err
		}
		best = min(best, res.FinalValPPL)
	}
	ctx.Printf("%-22s %12.2f\n", "AdamW (LR sweep)", best)
	for _, m := range []string{"APOLLO", "APOLLO-Mini"} {
		res, err := pretrainOne(ctx, proxy, m, 0, steps, longSeq, 1)
		if err != nil {
			return err
		}
		ctx.Printf("%-22s %12.2f\n", m, res.FinalValPPL)
	}
	ctx.Printf("\nshape to verify: APOLLO(-Mini) match or beat the swept AdamW with 1/8 to\n1/1024 of its optimizer memory (paper: they win late in training).\n")
	return nil
}

func runTable8(ctx *RunContext) error {
	ctx.Printf("Table 8 — INT8 weight quantization (group size 128), val perplexity\n\n")
	if err := pplGrid(ctx, "Method", 16, []string{"60M", "130M", "350M"}, "", []gridRow{
		{method: "AdamW", paper: []float64{34.06, 25.08, 18.80}},
		{method: "GaLore", paper: []float64{34.88, 25.36, 18.95}},
		{method: "Q-GaLore", paper: []float64{34.88, 25.53, 19.79}},
		{method: "APOLLO", paper: []float64{31.55, 22.94, 16.85}},
		{method: "Q-APOLLO", paper: []float64{31.97, 24.16, 18.79}},
		{method: "APOLLO-Mini", paper: []float64{31.93, 23.84, 17.18}},
		{method: "Q-APOLLO-Mini", paper: []float64{33.05, 24.70, 18.90}},
	}); err != nil {
		return err
	}
	ctx.Printf("\nshape to verify: Q- variants lose a little vs their fp parents but\nQ-APOLLO stays below GaLore and near/below AdamW.\n")
	return nil
}

func runTable9(ctx *RunContext) error {
	ctx.Printf("Table 9 — scaling-factor granularity at rank dim/4, val perplexity\n\n")
	if err := pplGrid(ctx, "Variant", 26, []string{"60M", "130M", "350M"}, "", []gridRow{
		{label: "APOLLO w. SVD / channel", method: "APOLLO w. SVD", paper: []float64{31.26, 22.84, 16.67}},
		{label: "APOLLO w. SVD / tensor", method: "APOLLO-Tensor w. SVD", paper: []float64{31.77, 23.86, 16.90}},
		{label: "APOLLO / channel", method: "APOLLO", paper: []float64{31.55, 22.94, 16.85}},
		{label: "APOLLO / tensor", method: "APOLLO-Tensor", paper: []float64{32.10, 23.82, 17.00}},
	}); err != nil {
		return err
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
