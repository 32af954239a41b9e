package train

import (
	"fmt"
	"testing"

	"apollo/internal/core"
	"apollo/internal/optim"
	"apollo/internal/zero"
)

// zeroBuilders are the optimizers the ZeRO acceptance contract names, with
// small ranks and refresh gaps so the 8-step horizon exercises projection
// refreshes and the limiter.
func zeroBuilders() map[string]func() optim.Optimizer {
	h := optim.Hyper{LR: 1e-3, WeightDecay: 0.01}
	return map[string]func() optim.Optimizer{
		"AdamW": func() optim.Optimizer { return optim.NewAdamW(h) },
		"APOLLO": func() optim.Optimizer {
			return core.New(h, core.Config{Rank: 4, Seed: 11, UpdateGap: 3})
		},
		"APOLLO-Mini": func() optim.Optimizer { return core.NewMini(h) },
		"GaLore": func() optim.Optimizer {
			return optim.NewGaLore(h, optim.LowRankConfig{Rank: 4, Seed: 11, UpdateGap: 3})
		},
	}
}

// TestZeroDPParity is the tentpole acceptance contract: for every named
// optimizer, `-replicas 4 -zero` reproduces the plain `-replicas 1` run
// bit-for-bit (metric series, final perplexity, weights) while no replica
// holds more than 1/3 of the unsharded optimizer state.
func TestZeroDPParity(t *testing.T) {
	const seed = 42
	for name, build := range zeroBuilders() {
		t.Run(name, func(t *testing.T) {
			refModel, _, refCorpus := dpTestSetup(t, seed)
			refOpt := build()
			ref := DPPretrain(refModel, refOpt, refCorpus, dpTestConfig(1))

			for _, replicas := range []int{2, 4} {
				t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
					gotModel, _, gotCorpus := dpTestSetup(t, seed)
					sh := zero.NewSharded(build(), replicas)
					got := DPPretrain(gotModel, sh, gotCorpus, dpTestConfig(replicas))

					if len(got.Series) != len(ref.Series) {
						t.Fatalf("series length %d != %d", len(got.Series), len(ref.Series))
					}
					for i := range ref.Series {
						if got.Series[i] != ref.Series[i] {
							t.Fatalf("metric %d differs:\n  got  %+v\n  want %+v", i, got.Series[i], ref.Series[i])
						}
					}
					if got.FinalValPPL != ref.FinalValPPL {
						t.Fatalf("final ppl %v != %v", got.FinalValPPL, ref.FinalValPPL)
					}
					refParams := refModel.Params().List()
					for i, p := range gotModel.Params().List() {
						if !p.W.Equal(refParams[i].W) {
							t.Fatalf("weight %s differs bitwise between plain x1 and zero x%d", p.Name, replicas)
						}
					}

					// Memory claim: per-replica resident state ≤ 1/N + the
					// balance slack; at 4 replicas the acceptance bound is 1/3
					// of the unsharded footprint.
					total := refOpt.StateBytes()
					if got.StateBytes != total {
						t.Fatalf("aggregate state %d != unsharded %d", got.StateBytes, total)
					}
					if len(got.ReplicaStateBytes) != replicas {
						t.Fatalf("got %d replica state entries, want %d", len(got.ReplicaStateBytes), replicas)
					}
					if replicas >= 4 {
						for r, b := range got.ReplicaStateBytes {
							if b > total/3 {
								t.Fatalf("replica %d holds %d of %d state bytes (> 1/3)", r, b, total)
							}
						}
					}
				})
			}
		})
	}
}

// TestZeroCommAccounting pins the comm-volume bookkeeping: the gradient
// all-reduce merges (B−1) full-parameter leaves per step in every mode,
// while the ZeRO weight broadcast moves (N−1)·P floats per step between
// replicas (plain DP instead re-broadcasts all weights to every replica).
func TestZeroCommAccounting(t *testing.T) {
	const seed = 9
	model, _, _ := dpTestSetup(t, seed)
	var paramBytes int64
	for _, p := range model.Params().List() {
		paramBytes += 4 * int64(p.NumEl())
	}
	cfg := dpTestConfig(4)
	steps := int64(cfg.Steps)
	b := int64(cfg.Batch)

	plainModel, plainOpt, plainCorpus := dpTestSetup(t, seed)
	plain := DPPretrain(plainModel, plainOpt, plainCorpus, cfg)
	if want := steps * (b - 1) * paramBytes; plain.AllReduceBytes != want {
		t.Fatalf("plain all-reduce bytes %d, want %d", plain.AllReduceBytes, want)
	}
	if want := steps * 4 * paramBytes; plain.BroadcastBytes != want {
		t.Fatalf("plain broadcast bytes %d, want %d", plain.BroadcastBytes, want)
	}

	zModel, _, zCorpus := dpTestSetup(t, seed)
	sh := zero.NewSharded(optim.NewAdamW(optim.Hyper{LR: 1e-3}), 4)
	z := DPPretrain(zModel, sh, zCorpus, cfg)
	if want := steps * (b - 1) * paramBytes; z.AllReduceBytes != want {
		t.Fatalf("zero all-reduce bytes %d, want %d", z.AllReduceBytes, want)
	}
	if want := steps * 3 * paramBytes; z.BroadcastBytes != want {
		t.Fatalf("zero broadcast bytes %d, want %d (shard tree: (N-1)·P per step)", z.BroadcastBytes, want)
	}
}
