package memmodel

import (
	"math"
	"testing"

	"apollo/internal/core"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

func TestParamCountsMatchPaperScale(t *testing.T) {
	// The named configs must land near their nominal sizes.
	wants := map[string]float64{
		"60M": 58e6, "130M": 134e6, "350M": 368e6, "1B": 1.3e9, "7B": 6.7e9, "13B": 13e9,
	}
	for _, cfg := range PaperConfigs() {
		got := float64(cfg.NumParams())
		want := wants[cfg.Name]
		if math.Abs(got-want)/want > 0.15 {
			t.Fatalf("%s: %v params, want ≈ %v", cfg.Name, got, want)
		}
	}
}

func TestAdamWMemoryMatchesTable2(t *testing.T) {
	// Table 2 reports weights+states in BF16-equivalent units: AdamW 60M =
	// 0.36G, 130M = 0.76G, 350M = 2.06G, 1B = 7.80G. The paper counts
	// optimizer states at the same 2 bytes/элем as the weights.
	wants := map[string]float64{"60M": 0.36, "130M": 0.76, "350M": 2.06, "1B": 7.80}
	for name, want := range wants {
		cfg, err := ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		params := float64(cfg.NumParams())
		got := GiB(params * BytesBF16 * 3) // weights + M + V
		if math.Abs(got-want)/want > 0.12 {
			t.Fatalf("%s AdamW memory %vG want ≈ %vG", name, got, want)
		}
	}
}

func TestStateOrderingMatchesPaper(t *testing.T) {
	// For every config: AdamW > GaLore > APOLLO > APOLLO-Mini ≈ SGD-ish.
	for _, cfg := range PaperConfigs() {
		r := cfg.DefaultRank()
		adam := OptimizerStateBytes(cfg, MethodAdamW, r)
		galore := OptimizerStateBytes(cfg, MethodGaLore, r)
		apollo := OptimizerStateBytes(cfg, MethodAPOLLO, r)
		mini := OptimizerStateBytes(cfg, MethodAPOLLOMini, r)
		sgd := OptimizerStateBytes(cfg, MethodSGD, r)
		if !(adam > galore && galore > apollo && apollo > mini && mini > sgd) {
			t.Fatalf("%s ordering violated: adam=%v galore=%v apollo=%v mini=%v sgd=%v",
				cfg.Name, adam, galore, apollo, mini, sgd)
		}
		// APOLLO-Mini's projected-matrix state must be negligible vs AdamW:
		// the residue is the dense fallback on norms only.
		if mini > 0.05*adam {
			t.Fatalf("%s: Mini states %v not ≪ AdamW %v", cfg.Name, mini, adam)
		}
	}
}

func TestAPOLLO7BStateNearPaperEstimate(t *testing.T) {
	// Table 3: APOLLO (rank 256) ≈ 1.6G of optimizer states on 7B;
	// APOLLO-Mini ≈ "0.0G" (negligible). fp32 states.
	cfg, _ := ConfigByName("7B")
	apollo := GiB(OptimizerStateBytes(cfg, MethodAPOLLO, 256))
	if apollo < 0.5 || apollo > 3.0 {
		t.Fatalf("7B APOLLO state %vG, paper reports ≈1.6G", apollo)
	}
	mini := GiB(OptimizerStateBytes(cfg, MethodAPOLLOMini, 1))
	if mini > 0.2 {
		t.Fatalf("7B Mini state %vG should be ≈0", mini)
	}
}

// TestLiveOptimizerMatchesFormula cross-checks the analytic Table 1 formulas
// against the bytes actually allocated by the live optimizers on a single
// matrix parameter — the two accountings must agree exactly.
func TestLiveOptimizerMatchesFormula(t *testing.T) {
	const m, n, r = 32, 96, 8
	mk := func() *nn.Param {
		rng := tensor.NewRNG(1)
		return nn.NewParam("w", nn.KindMatrix, tensor.NewMatrixRand(m, n, 0.1, rng))
	}
	step := func(o optim.Optimizer, p *nn.Param) {
		rng := tensor.NewRNG(2)
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat32()
		}
		o.Step([]*nn.Param{p})
	}

	cases := []struct {
		method Method
		build  func() optim.Optimizer
	}{
		{MethodAdamW, func() optim.Optimizer { return optim.NewAdamW(optim.Hyper{LR: 0.01}) }},
		{MethodAPOLLO, func() optim.Optimizer {
			return core.New(optim.Hyper{LR: 0.01}, core.Config{Rank: r})
		}},
		{MethodAPOLLOMini, func() optim.Optimizer { return core.NewMini(optim.Hyper{LR: 0.01}) }},
	}
	for _, c := range cases {
		p := mk()
		o := c.build()
		step(o, p)
		rank := int64(r)
		if c.method.Name == "APOLLO-Mini" {
			rank = 1
		}
		want := int64(c.method.StateElems(m, n, rank)) * 4
		if got := o.StateBytes(); got != want {
			t.Fatalf("%s: live StateBytes %d != formula %d", c.method.Name, got, want)
		}
	}
}

func TestComputeBreakdown7B(t *testing.T) {
	cfg, _ := ConfigByName("7B")
	plan := Plan{
		Config: cfg, Method: MethodAdamW, SeqLen: 1024, MicroBatch: 4,
	}
	b := Compute(plan)
	if GiB(b.Weights) < 11 || GiB(b.Weights) > 15 {
		t.Fatalf("7B BF16 weights %vG want ≈ 12.5G", GiB(b.Weights))
	}
	if GiB(b.States) < 22 || GiB(b.States) > 32 {
		t.Fatalf("7B AdamW states %vG want ≈ 25G (paper: 28G, BF16 units)", GiB(b.States))
	}
}

func TestLayerWiseGradSavesMemory(t *testing.T) {
	cfg, _ := ConfigByName("7B")
	full := Compute(Plan{Config: cfg, Method: MethodAPOLLOMini, SeqLen: 256, MicroBatch: 1})
	lw := Compute(Plan{Config: cfg, Method: MethodAPOLLOMini, SeqLen: 256, MicroBatch: 1, LayerWiseGrad: true})
	if lw.Gradients >= full.Gradients/5 {
		t.Fatalf("layer-wise gradients %v not ≪ full %v", lw.Gradients, full.Gradients)
	}
}

func TestCheckpointingSavesActivationMemory(t *testing.T) {
	cfg, _ := ConfigByName("7B")
	on := Compute(Plan{Config: cfg, Method: MethodAdamW, SeqLen: 1024, MicroBatch: 8, ActivationCkpt: true})
	off := Compute(Plan{Config: cfg, Method: MethodAdamW, SeqLen: 1024, MicroBatch: 8})
	if on.Activations >= off.Activations/3 {
		t.Fatalf("checkpointing saved too little: %v vs %v", on.Activations, off.Activations)
	}
}

// TestQAPOLLOMiniUnder12GB reproduces the headline Fig. 1 claim: LLaMA-7B
// pre-training under 12 GB with INT8 weights + APOLLO-Mini + layer-wise
// gradient updates + activation checkpointing.
func TestQAPOLLOMiniUnder12GB(t *testing.T) {
	cfg, _ := ConfigByName("7B")
	plan := Plan{
		Config: cfg, Method: MethodAPOLLOMini, Rank: 1,
		SeqLen: 256, MicroBatch: 1,
		Int8Weights: true, GroupSize: 128,
		LayerWiseGrad: true, ActivationCkpt: true,
	}
	b := Compute(plan)
	if got := GiB(b.Total()); got >= 12 {
		t.Fatalf("Q-APOLLO-Mini 7B total %vG, paper claims < 12G (breakdown %+v)", got, b)
	}
}

// TestAdamW13BDoesNotFitButMiniDoes reproduces the Section 5.3 claim:
// APOLLO-Mini pre-trains 13B on one 80 GB device with naive DDP while AdamW
// cannot.
func TestAdamW13BDoesNotFitButMiniDoes(t *testing.T) {
	cfg, _ := ConfigByName("13B")
	adam := Compute(Plan{Config: cfg, Method: MethodAdamW, SeqLen: 256, MicroBatch: 1, ActivationCkpt: true})
	if GiB(adam.Total()) < 80 {
		t.Fatalf("AdamW 13B total %vG unexpectedly fits in 80G", GiB(adam.Total()))
	}
	mini := Compute(Plan{
		Config: cfg, Method: MethodAPOLLOMini, Rank: 1,
		SeqLen: 256, MicroBatch: 1, LayerWiseGrad: true, ActivationCkpt: true,
	})
	if GiB(mini.Total()) >= 80 {
		t.Fatalf("APOLLO-Mini 13B total %vG does not fit in 80G", GiB(mini.Total()))
	}
}

func TestTable1RowsComplete(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("Table 1 has %d rows want 5", len(rows))
	}
	if !rows[0].NoSVD || rows[3].NoSVD {
		t.Fatal("SVD flags wrong: APOLLO-Mini avoids SVD, GaLore does not")
	}
	for _, r := range rows[:2] {
		if !r.FullRankGrad || !r.PreTraining {
			t.Fatalf("APOLLO rows must be full-rank-gradient pre-trainable: %+v", r)
		}
	}
}

func TestConfigByNameUnknown(t *testing.T) {
	if _, err := ConfigByName("999B"); err == nil {
		t.Fatal("expected error")
	}
}

// TestServeBytes: the serving footprint is weights-dominated, independent
// of the optimizer that trained the snapshot, and far below both the
// checkpoint size and the training-plan total for the same config.
func TestServeBytes(t *testing.T) {
	cfg, err := ConfigByName("7B")
	if err != nil {
		t.Fatal(err)
	}
	params := float64(cfg.NumParams())
	got := ServeBytes(cfg.Shapes())
	if got < BytesFP32*params {
		t.Fatalf("ServeBytes %v below the raw fp32 weights %v", got, BytesFP32*params)
	}
	// Bookkeeping must stay marginal: under 0.1% at 7B scale.
	if got > BytesFP32*params*1.001 {
		t.Fatalf("ServeBytes %v carries more than 0.1%% overhead over %v", got, BytesFP32*params)
	}
	// Serving must be cheaper than an AdamW checkpoint of the same model
	// (which adds two fp32 moments per weight): roughly one third.
	ck := CheckpointBytesFor(cfg, MethodAdamW, 0)
	if got > ck/2 {
		t.Fatalf("ServeBytes %v not well below AdamW CheckpointBytes %v", got, ck)
	}
}

// TestShapesOfMirrorsParamKinds pins the conversion policy: matrices are
// projectable, embeddings and vectors are not.
func TestShapesOfMirrorsParamKinds(t *testing.T) {
	rng := tensor.NewRNG(1)
	params := []*nn.Param{
		nn.NewParam("e", nn.KindEmbedding, tensor.NewMatrixRand(8, 4, 1, rng)),
		nn.NewParam("m", nn.KindMatrix, tensor.NewMatrixRand(4, 4, 1, rng)),
		nn.NewParam("v", nn.KindVector, tensor.NewMatrixRand(1, 4, 1, rng)),
	}
	shapes := ShapesOf(params)
	if shapes[0].Projectable || !shapes[1].Projectable || shapes[2].Projectable {
		t.Fatalf("projectability wrong: %+v", shapes)
	}
}
