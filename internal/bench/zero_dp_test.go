package bench

import (
	"testing"

	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
	"apollo/internal/train"
	"apollo/internal/zero"
)

// TestCatalogueZeroDPParity is ZeRO's contract through the trainer, for every
// catalogue row with a memmodel formula: DPPretrain under
// zero.NewSharded(·, 4) on 4 replicas — the sharded step, and the shard
// broadcast that brings every replica's weights back — reproduces the plain
// single-replica run bit for bit: metric series, final perplexity, weights
// and state bytes. TestCatalogueShardedParity holds the same rows at the
// optimizer; this test adds the broadcast. The model is smaller than the
// 60M proxy (one block, width 16, rank 4) so ten race passes stay short; its
// matrices are still wider than the rank, so every projected row projects.
func TestCatalogueZeroDPParity(t *testing.T) {
	const world = 4
	cfg := nn.Config{Vocab: proxyVocab, Dim: 16, Hidden: 32, Heads: 2, Layers: 1, MaxSeq: 16}
	pcfg := train.PretrainConfig{Batch: world, Seq: 8, Steps: 4, EvalEvery: 2, EvalBatches: 1}
	run := func(t *testing.T, opt optim.Optimizer, replicas int) (train.Result, []*nn.Param) {
		corpus, err := NewCorpus(17)
		if err != nil {
			t.Fatal(err)
		}
		model := nn.NewModel(cfg, tensor.NewRNG(33))
		res := train.DPPretrain(model, opt, corpus, train.DPConfig{PretrainConfig: pcfg, Replicas: replicas})
		return res, model.Params().List()
	}
	rows := 0
	for _, m := range Methods() {
		if m.Mem == nil {
			continue
		}
		rows++
		t.Run(m.Name, func(t *testing.T) {
			rank := m.Rank(0, cfg.Dim)
			build := func() optim.Optimizer { return m.New(optim.Hyper{LR: 3e-3}, rank, 5) }
			ref, refParams := run(t, build(), 1)
			got, gotParams := run(t, zero.NewSharded(build(), world), world)

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
			for i, p := range gotParams {
				if !p.W.Equal(refParams[i].W) {
					t.Fatalf("weight %s differs bitwise between plain x1 and zero x%d", p.Name, world)
				}
			}
			if got.StateBytes != ref.StateBytes || len(got.ReplicaStateBytes) != world {
				t.Fatalf("state %d bytes over %d replicas, want %d over %d",
					got.StateBytes, len(got.ReplicaStateBytes), ref.StateBytes, world)
			}
		})
	}
	if rows < 16 {
		t.Fatalf("%d catalogue rows with a memmodel formula, want at least 16", rows)
	}
}
