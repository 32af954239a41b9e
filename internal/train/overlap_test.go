package train

import (
	"slices"
	"testing"

	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/optim"
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
