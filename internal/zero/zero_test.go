package zero

import (
	"fmt"
	"reflect"
	"testing"

	"apollo/internal/core"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// testParams builds a parameter list shaped like a small model: a mix of
// matrices, an embedding and vectors, with unequal sizes so balancing is
// non-trivial.
func testParams(seed uint64) []*nn.Param {
	rng := tensor.NewRNG(seed)
	mk := func(name string, kind nn.ParamKind, rows, cols int) *nn.Param {
		return nn.NewParam(name, kind, tensor.NewMatrixRand(rows, cols, 0.1, rng))
	}
	return []*nn.Param{
		mk("embed", nn.KindEmbedding, 64, 16),
		mk("norm1", nn.KindVector, 1, 16),
		mk("wq", nn.KindMatrix, 16, 16),
		mk("wk", nn.KindMatrix, 16, 16),
		mk("wv", nn.KindMatrix, 16, 16),
		mk("wo", nn.KindMatrix, 16, 16),
		mk("gate", nn.KindMatrix, 40, 16),
		mk("up", nn.KindMatrix, 40, 16),
		mk("down", nn.KindMatrix, 16, 40),
		mk("norm2", nn.KindVector, 1, 16),
		mk("head", nn.KindMatrix, 64, 16),
	}
}

func TestPartitionBalance(t *testing.T) {
	params := testParams(1)
	var total, largest int64
	for _, p := range params {
		total += int64(p.NumEl())
		if int64(p.NumEl()) > largest {
			largest = int64(p.NumEl())
		}
	}
	for _, n := range []int{1, 2, 3, 4, 7} {
		parts := Partition(params, n)
		if len(parts) != n {
			t.Fatalf("n=%d: got %d shards", n, len(parts))
		}
		seen := map[int]bool{}
		for _, idxs := range parts {
			for _, i := range idxs {
				if seen[i] {
					t.Fatalf("n=%d: index %d owned twice", n, i)
				}
				seen[i] = true
			}
		}
		if len(seen) != len(params) {
			t.Fatalf("n=%d: %d of %d params owned", n, len(seen), len(params))
		}
		// Greedy largest-first bound: max load ≤ ideal + largest item.
		ideal := total / int64(n)
		for s, idxs := range parts {
			var load int64
			for _, i := range idxs {
				load += int64(params[i].NumEl())
			}
			if load > ideal+largest {
				t.Fatalf("n=%d shard %d holds %d elems, bound %d", n, s, load, ideal+largest)
			}
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	a := Partition(testParams(1), 4)
	b := Partition(testParams(2), 4) // same shapes, different values/addresses
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("partition depends on more than shapes:\n%v\n%v", a, b)
	}
}

func TestPartitionClampsShardCount(t *testing.T) {
	params := testParams(1)
	parts := Partition(params, len(params)+5)
	if len(parts) != len(params) {
		t.Fatalf("got %d shards for %d params", len(parts), len(params))
	}
	if len(Partition(params, 0)) != 1 {
		t.Fatal("n=0 should clamp to one shard")
	}
}

// fillGrads writes a deterministic pseudo-gradient into every parameter.
func fillGrads(params []*nn.Param, step int) {
	rng := tensor.NewRNG(uint64(step)*7919 + 13)
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat32() * 0.05
		}
	}
}

// shardableBuilders covers every optimizer family the determinism contract
// was first stated for: per-param-independent updates and the
// seeded-projection methods (bench.TestCatalogueShardedParity ranges it over
// the whole catalogue). Small rank and update gap exercise projection
// refreshes within the test horizon.
func shardableBuilders() map[string]func() optim.Optimizer {
	h := optim.Hyper{LR: 0.01, WeightDecay: 0.1}
	return map[string]func() optim.Optimizer{
		"AdamW":     func() optim.Optimizer { return optim.NewAdamW(h) },
		"SGD-M":     func() optim.Optimizer { return optim.NewSGD(h, 0.9) },
		"Adam-mini": func() optim.Optimizer { return optim.NewAdamMini(h) },
		"GaLore": func() optim.Optimizer {
			return optim.NewGaLore(h, optim.LowRankConfig{Rank: 4, Seed: 11, UpdateGap: 3})
		},
		"Fira": func() optim.Optimizer {
			return optim.NewFira(h, optim.LowRankConfig{Rank: 4, Seed: 11, UpdateGap: 3})
		},
		"Flora": func() optim.Optimizer {
			return optim.NewFlora(h, optim.LowRankConfig{Rank: 4, Seed: 11, UpdateGap: 3})
		},
		"APOLLO": func() optim.Optimizer {
			return core.New(h, core.Config{Rank: 4, Seed: 11, UpdateGap: 3})
		},
		"APOLLO-Mini": func() optim.Optimizer { return core.NewMini(h) },
	}
}

// TestShardedStepParity is the core contract: for every shardable optimizer
// and shard count, stepping through zero.Sharded leaves weights bit-identical
// to the unsharded instance.
func TestShardedStepParity(t *testing.T) {
	for name, build := range shardableBuilders() {
		for _, n := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, n), func(t *testing.T) {
				ref := testParams(5)
				got := testParams(5)
				refOpt := build()
				shOpt := NewSharded(build(), n)
				const steps = 8
				for step := 0; step < steps; step++ {
					fillGrads(ref, step)
					fillGrads(got, step)
					refOpt.Step(ref)
					shOpt.Step(got)
				}
				for i, p := range got {
					if !p.W.Equal(ref[i].W) {
						t.Fatalf("param %s differs bitwise after %d steps", p.Name, steps)
					}
				}
			})
		}
	}
}

// TestShardedStateBytesPartition checks the memory claim: per-shard state
// sums to the unsharded footprint, and at 4 shards no replica holds more
// than 1/3 of it (the balanced-partition bound the acceptance criteria use).
func TestShardedStateBytesPartition(t *testing.T) {
	for name, build := range shardableBuilders() {
		if name == "SGD-M" {
			continue // velocity-only state follows the same partition; skip noise
		}
		t.Run(name, func(t *testing.T) {
			params := testParams(5)
			unsharded := build()
			fillGrads(params, 0)
			unsharded.Step(params)
			total := unsharded.StateBytes()

			sh := NewSharded(build(), 4)
			params2 := testParams(5)
			fillGrads(params2, 0)
			sh.Step(params2)
			per := sh.ReplicaStateBytes()
			var sum int64
			for s, b := range per {
				sum += b
				if total > 0 && b > total/3 {
					t.Fatalf("shard %d holds %d of %d bytes (> 1/3)", s, b, total)
				}
			}
			if sum != total {
				t.Fatalf("sharded total %d != unsharded %d", sum, total)
			}
			if got := sh.StateBytes(); got != total {
				t.Fatalf("aggregate StateBytes %d != unsharded %d", got, total)
			}
		})
	}
}

func TestShardedOptimizerInterface(t *testing.T) {
	sh := NewSharded(optim.NewAdamW(optim.Hyper{LR: 0.5}), 3)
	if sh.Name() != "AdamW+ZeRO3" {
		t.Fatalf("name %q", sh.Name())
	}
	sh.SetLR(0.25)
	if sh.LR() != 0.25 {
		t.Fatalf("lr %v", sh.LR())
	}
	params := testParams(1)
	sh.Init(params)
	sh.Init(params) // idempotent
	// The shards' segments must tile every parameter's rows exactly once.
	rowsOwned := make([]map[int]int, len(params))
	for i := range rowsOwned {
		rowsOwned[i] = map[int]int{}
	}
	for s := 0; s < sh.Shards(); s++ {
		for _, sg := range sh.OwnedSegments(s) {
			for r := sg.Row0; r < sg.Row1; r++ {
				rowsOwned[sg.Param][r]++
			}
		}
	}
	for i, p := range params {
		for r := 0; r < p.W.Rows; r++ {
			if rowsOwned[i][r] != 1 {
				t.Fatalf("param %d row %d owned %d times", i, r, rowsOwned[i][r])
			}
		}
	}
	var _ optim.ShardedStepper = sh
}

func TestShardedRejectsNewParamList(t *testing.T) {
	sh := NewSharded(optim.NewAdamW(optim.Hyper{LR: 0.5}), 2)
	sh.Init(testParams(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on re-Init with a different list")
		}
	}()
	sh.Init(testParams(2))
}
