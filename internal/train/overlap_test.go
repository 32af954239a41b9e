package train

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
	"apollo/internal/zero"
)

// groupLog records the length of every list Step is handed.
type groupLog struct{ sizes []int }

func (l *groupLog) add(ps []*nn.Param) { l.sizes = append(l.sizes, len(ps)) }

// logged records what Step is handed; loggedSharded does so for a
// ShardedStepper without hiding that it is one.
type (
	logged struct {
		optim.Optimizer
		log *groupLog
	}
	loggedSharded struct {
		*zero.Sharded
		log *groupLog
	}
)

func (o logged) Step(ps []*nn.Param)        { o.log.add(ps); o.Optimizer.Step(ps) }
func (o loggedSharded) Step(ps []*nn.Param) { o.log.add(ps); o.Sharded.Step(ps) }

// TestReleaseGroupsReachStep pins when the loop steps the groups backward
// releases and when it falls back to one whole-list Step: every optimizer is
// handed the groups in the fused stage of an unclipped run, from the run's
// first step on, and under -accum only once per step. Whole lists are left
// for clipping (which needs the global norm first), the data-parallel stage
// and a ShardedStepper (whose ownership map is fixed from the whole list),
// and for a batch with no target (no backward ran). The dpTestSetup model
// has 21 parameters: [norm_f, head], two blocks of 9, [embed].
func TestReleaseGroupsReachStep(t *testing.T) {
	h := optim.Hyper{LR: 1e-3}
	whole, groups := []int{21}, []int{2, 9, 9, 1}
	adamW := func(l *groupLog) optim.Optimizer { return logged{optim.NewAdamW(h), l} }
	cases := []struct {
		name  string
		opt   func(*groupLog) optim.Optimizer
		tweak func(*DPConfig, *data.Corpus)
		want  [][]int // per step
	}{
		{"unclipped", adamW, nil, [][]int{groups, groups, groups}},
		{"unclipped/accum=2", adamW, func(c *DPConfig, _ *data.Corpus) { c.Accum = 2 },
			[][]int{groups, groups, groups}},
		{"unclipped/resumed", adamW, func(c *DPConfig, _ *data.Corpus) { c.StartStep = 1 },
			[][]int{groups, groups}},
		{"unclipped/untargeted batch", adamW, func(_ *DPConfig, corpus *data.Corpus) {
			calls := 0
			corpus.HookTrainBatch = func(b *data.Batch) {
				if calls++; calls == 2 {
					for i := range b.Targets {
						b.Targets[i] = -1
					}
				}
			}
		}, [][]int{groups, whole, groups}},
		{"clipped", adamW, func(c *DPConfig, _ *data.Corpus) { c.ClipNorm = 1 },
			[][]int{whole, whole, whole}},
		{"replicas=2", adamW, func(c *DPConfig, _ *data.Corpus) { c.Replicas = 2 },
			[][]int{whole, whole, whole}},
		{"8-bit Adam", func(l *groupLog) optim.Optimizer { return logged{optim.NewAdam8bit(h, 1), l} }, nil,
			[][]int{groups, groups, groups}},
		{"unknown wrapper", func(l *groupLog) optim.Optimizer {
			return logged{optim.NewWeightQuantized(optim.NewAdamW(h), 1), l}
		}, nil, [][]int{groups, groups, groups}},
		{"sharded", func(l *groupLog) optim.Optimizer { return loggedSharded{zero.NewSharded(optim.NewAdamW(h), 2), l} }, nil,
			[][]int{whole, whole, whole}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			model, _, corpus := dpTestSetup(t, 3)
			cfg := dpTestConfig(0)
			cfg.Steps, cfg.ClipNorm = 3, 0
			if c.tweak != nil {
				c.tweak(&cfg, corpus)
			}
			var log groupLog
			opt := c.opt(&log)
			if cfg.Replicas > 0 {
				DPPretrain(model, opt, corpus, cfg)
			} else {
				Pretrain(model, opt, corpus, cfg.PretrainConfig)
			}
			if want := slices.Concat(c.want...); !slices.Equal(log.sizes, want) {
				t.Fatalf("Step was handed lists of %v parameters, want %v", log.sizes, want)
			}
		})
	}
}

// panicOnGroup panics the first time it is handed less than the whole list,
// which happens on the stepping goroutine.
type panicOnGroup struct {
	*optim.AdamW
	all int
}

func (o panicOnGroup) Step(ps []*nn.Param) {
	if len(ps) < o.all {
		panic("boom")
	}
	o.AdamW.Step(ps)
}

// TestReleasedStepPanicReachesTheLoop: a panic inside a Step the stepping
// goroutine runs is re-raised on the goroutine that called Pretrain, where
// the caller can recover it.
func TestReleasedStepPanicReachesTheLoop(t *testing.T) {
	model, _, corpus := dpTestSetup(t, 3)
	cfg := dpTestConfig(0).PretrainConfig
	cfg.ClipNorm = 0
	opt := panicOnGroup{optim.NewAdamW(optim.Hyper{LR: 1e-3}), len(model.Params().List())}
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the stepping goroutine's panic", r)
		}
	}()
	Pretrain(model, opt, corpus, cfg)
	t.Fatal("Pretrain returned although a released group's Step panicked")
}

// TestLentPassPanicLeavesNothingRunning: with lent gradients a panic on
// either side of the overlapped step — in a released group's Step, or in
// backward itself halfway down the stack, after two groups went out — reaches
// the caller of Pretrain and leaves no goroutine running: a borrow stops
// waiting for a slab the dead stepper will never give back, and a dead
// backward's stepper drains and exits. The model then trains on from a fresh
// ring.
func TestLentPassPanicLeavesNothingRunning(t *testing.T) {
	h := optim.Hyper{LR: 1e-3}
	cases := []struct {
		name  string
		opt   func(all int) optim.Optimizer
		spoil func(*nn.Model) (mend func())
		want  string // in the recovered panic
	}{
		{"step panics", func(all int) optim.Optimizer { return panicOnGroup{optim.NewAdamW(h), all} }, nil, "boom"},
		{"backward panics", func(int) optim.Optimizer { return optim.NewAdamW(h) }, func(m *nn.Model) func() {
			// Block 0 is the last block backward reaches; its first
			// accumulation into a gradient of the wrong shape panics.
			p := m.Blocks[0].MLP.Down.P
			grad := p.Grad
			p.Grad = tensor.NewMatrix(1, 1)
			return func() { p.Grad = grad }
		}, "AddInPlace shape mismatch"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			model, _, corpus := dpTestSetup(t, 3)
			cfg := dpTestConfig(0).PretrainConfig
			cfg.ClipNorm, cfg.Steps = 0, 2
			Pretrain(model, optim.NewAdamW(h), corpus, cfg) // the pool's workers are up from here on
			before := runtime.NumGoroutine()

			mend := func() {}
			if c.spoil != nil {
				mend = c.spoil(model)
			}
			func() {
				defer func() {
					if r := recover(); !strings.Contains(fmt.Sprint(r), c.want) {
						t.Fatalf("recovered %v, want a panic with %q", r, c.want)
					}
				}()
				Pretrain(model, c.opt(len(model.Params().List())), corpus, cfg)
				t.Fatal("Pretrain returned although the pass panicked")
			}()
			for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after the panic, %d before", n, before)
			}

			mend()
			if res := Pretrain(model, optim.NewAdamW(h), corpus, cfg); res.Steps != cfg.Steps {
				t.Fatalf("the model trained %d steps after the panic, want %d", res.Steps, cfg.Steps)
			}
		})
	}
}
