package core

import (
	"math"
	"testing"

	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// trainTiny runs a fixed training job and returns the final loss — shared by
// the ablation tests below.
func trainTiny(t *testing.T, mk func() optim.Optimizer, steps int) float64 {
	t.Helper()
	cfg := nn.Config{Vocab: 32, Dim: 16, Hidden: 32, Heads: 2, Layers: 2, MaxSeq: 16}
	model := nn.NewModel(cfg, tensor.NewRNG(71))
	opt := mk()
	rng := tensor.NewRNG(72)
	var last float64
	for step := 0; step < steps; step++ {
		tokens := make([]int, 4*8)
		targets := make([]int, 4*8)
		for i := range tokens {
			tokens[i] = rng.Intn(cfg.Vocab)
			targets[i] = (tokens[i] + 1) % cfg.Vocab // learnable successor rule
		}
		model.Params().ZeroGrad()
		last = model.Loss(tokens, targets, 4, 8)
		opt.Step(model.Params().List())
	}
	return last
}

// TestAblationUpdateGap: the projection refresh period T should not be
// critical (the paper uses 200 without tuning) — overly frequent refreshes
// must not break training.
func TestAblationUpdateGap(t *testing.T) {
	for _, gap := range []int{1, 10, 200} {
		gap := gap
		loss := trainTiny(t, func() optim.Optimizer {
			return New(optim.Hyper{LR: 0.02}, Config{Rank: 4, UpdateGap: gap})
		}, 60)
		if math.IsNaN(loss) || loss > 3.4 {
			t.Fatalf("UpdateGap=%d: loss %v (training broken)", gap, loss)
		}
	}
}

// TestAblationScaleCompensation: a reasonable range of α must all train;
// larger α within the √(n/r) ballpark should not diverge thanks to the
// norm-growth limiter.
func TestAblationScaleCompensation(t *testing.T) {
	losses := map[float64]float64{}
	for _, alpha := range []float64{0.5, 1, 2, 4} {
		alpha := alpha
		losses[alpha] = trainTiny(t, func() optim.Optimizer {
			return New(optim.Hyper{LR: 0.02}, Config{Rank: 4, Scale: alpha})
		}, 60)
		if math.IsNaN(losses[alpha]) {
			t.Fatalf("α=%v diverged", alpha)
		}
	}
	// All configurations must have learned something.
	for alpha, l := range losses {
		if l > 3.4 {
			t.Fatalf("α=%v failed to learn: loss %v", alpha, l)
		}
	}
}

// TestAblationGranularityBothTrain: channel and tensor scaling at equal rank
// both train (Table 9's finding at moderate rank).
func TestAblationGranularityBothTrain(t *testing.T) {
	ch := trainTiny(t, func() optim.Optimizer {
		return New(optim.Hyper{LR: 0.02}, Config{Rank: 4, Granularity: Channel})
	}, 80)
	te := trainTiny(t, func() optim.Optimizer {
		return New(optim.Hyper{LR: 0.02}, Config{Rank: 4, Granularity: Tensor, Scale: 1})
	}, 80)
	if ch > 3.4 || te > 3.4 {
		t.Fatalf("granularity ablation failed: channel %v tensor %v", ch, te)
	}
}

// TestAblationSVDvsRandomClose: for APOLLO the projection type should not
// change outcomes much (Fig. 5's core claim), unlike GaLore.
func TestAblationSVDvsRandomClose(t *testing.T) {
	rp := trainTiny(t, func() optim.Optimizer {
		return New(optim.Hyper{LR: 0.02}, Config{Rank: 4})
	}, 80)
	svd := trainTiny(t, func() optim.Optimizer {
		return New(optim.Hyper{LR: 0.02}, Config{Rank: 4, Projection: 1 /* SVD */})
	}, 80)
	if math.Abs(rp-svd) > 0.8 {
		t.Fatalf("APOLLO projection sensitivity too high: RP %v vs SVD %v", rp, svd)
	}
}

// TestMiniBeatsPlainSGDAtEqualMemory: APOLLO-Mini's headline — SGD-like
// memory, far better optimization than SGD at the same learning rate scale.
func TestMiniBeatsPlainSGDAtEqualMemory(t *testing.T) {
	sgd := trainTiny(t, func() optim.Optimizer {
		return optim.NewSGD(optim.Hyper{LR: 0.02}, 0)
	}, 80)
	mini := trainTiny(t, func() optim.Optimizer {
		return NewMini(optim.Hyper{LR: 0.02})
	}, 80)
	if mini >= sgd {
		t.Fatalf("Mini (%v) should out-optimize plain SGD (%v)", mini, sgd)
	}
}

// TestAPOLLORankRobustness: halving the rank should barely change the
// result (Table 2's ✝ row), unlike GaLore (Fig. 5d).
func TestAPOLLORankRobustness(t *testing.T) {
	full := trainTiny(t, func() optim.Optimizer {
		return New(optim.Hyper{LR: 0.02}, Config{Rank: 4})
	}, 80)
	half := trainTiny(t, func() optim.Optimizer {
		return New(optim.Hyper{LR: 0.02}, Config{Rank: 2})
	}, 80)
	if math.Abs(full-half) > 0.6 {
		t.Fatalf("rank halving changed loss too much: %v vs %v", full, half)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{Rank: 0}).Validate(); err == nil {
		t.Fatal("rank 0 must be rejected")
	}
	if err := (Config{Rank: 1, Scale: -1}).Validate(); err == nil {
		t.Fatal("negative scale must be rejected")
	}
	cfg := Config{Rank: 1}.withDefaults()
	if cfg.UpdateGap != 200 || DefaultGamma != 1.01 {
		t.Fatalf("defaults %+v", cfg)
	}
}

func TestGranularityString(t *testing.T) {
	if Channel.String() != "channel" || Tensor.String() != "tensor" {
		t.Fatal("granularity strings")
	}
}
