package train

import (
	"fmt"
	"math"
	"testing"

	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

func dpTestSetup(t testing.TB, seed uint64) (*nn.Model, optim.Optimizer, *data.Corpus) {
	t.Helper()
	cfg := nn.Config{Vocab: 64, Dim: 16, Hidden: 40, Heads: 2, Layers: 2, MaxSeq: 32}
	model := nn.NewModel(cfg, tensor.NewRNG(seed))
	opt := optim.NewAdamW(optim.Hyper{LR: 1e-3})
	srcCfg := data.DefaultSourceConfig()
	srcCfg.Vocab = 64
	src, err := data.NewSource(srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.NewCorpus(src, seed+1, seed+2)
	return model, opt, corpus
}

func dpTestConfig(replicas int) DPConfig {
	return DPConfig{
		PretrainConfig: PretrainConfig{
			Batch: 6, Seq: 16, Steps: 8, EvalEvery: 4, EvalBatches: 2, ClipNorm: 1.0,
			Schedule: optim.NewWarmupCosine(1e-3, 8),
		},
		Replicas: replicas,
	}
}

// dpRun trains a fresh model data-parallel and returns the result together
// with the trained model for weight comparison.
func dpRun(t *testing.T, replicas int, seed uint64) (Result, *nn.Model) {
	t.Helper()
	model, opt, corpus := dpTestSetup(t, seed)
	res := DPPretrain(model, opt, corpus, dpTestConfig(replicas))
	return res, model
}

// TestDPReplicaParity is the core determinism contract: the loss curve and
// final weights of a data-parallel run are bit-identical for every replica
// count, including the serial single-replica reference.
func TestDPReplicaParity(t *testing.T) {
	const seed = 42
	ref, refModel := dpRun(t, 1, seed)
	for _, n := range []int{2, 3, 4, 6} {
		n := n
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			got, gotModel := dpRun(t, n, seed)
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
					t.Fatalf("weight %s differs bitwise between 1 and %d replicas", p.Name, n)
				}
			}
		})
	}
}

// TestDPMatchesFused checks the DP gradient definition agrees with the
// classic fused full-batch loop to float tolerance — same math, different
// float32 summation order.
func TestDPMatchesFused(t *testing.T) {
	const seed = 7
	fusedModel, fusedOpt, fusedCorpus := dpTestSetup(t, seed)
	fused := Pretrain(fusedModel, fusedOpt, fusedCorpus, PretrainConfig{
		Batch: 6, Seq: 16, Steps: 6, EvalEvery: 0, EvalBatches: 2,
	})
	dpModel, dpOpt, dpCorpus := dpTestSetup(t, seed)
	dp := DPPretrain(dpModel, dpOpt, dpCorpus, DPConfig{
		PretrainConfig: PretrainConfig{Batch: 6, Seq: 16, Steps: 6, EvalEvery: 0, EvalBatches: 2},
		Replicas:       3,
	})
	if d := math.Abs(fused.Series[0].ValLoss - dp.Series[0].ValLoss); d > 1e-3 {
		t.Fatalf("fused vs DP final val loss differ by %v (%v vs %v)",
			d, fused.Series[0].ValLoss, dp.Series[0].ValLoss)
	}
	dpParams := dpModel.Params().List()
	for i, p := range fusedModel.Params().List() {
		if !p.W.AllClose(dpParams[i].W, 1e-3) {
			t.Fatalf("weight %s drifted beyond tolerance between fused and DP", p.Name)
		}
	}
}

// TestDPShardedLossMatchesFull checks the per-shard cross-entropy identity
// at one step: summed shard losses equal the full-batch loss to float64
// round-off when normalized by the global count.
func TestDPShardedLossMatchesFull(t *testing.T) {
	cfg := nn.Config{Vocab: 32, Dim: 8, Hidden: 24, Heads: 2, Layers: 1, MaxSeq: 16}
	model := nn.NewModel(cfg, tensor.NewRNG(3))
	srcCfg := data.DefaultSourceConfig()
	srcCfg.Vocab = 32
	src, err := data.NewSource(srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.NewCorpus(src, 5, 6)
	batch := corpus.NextTrainBatch(4, 8)
	counted := nn.CountTargets(batch.Targets, -1)

	logits := model.Forward(batch.Tokens, batch.B, batch.T)
	fullLoss, _ := nn.CrossEntropy(logits, batch.Targets, -1)

	var sum float64
	for s := 0; s < batch.B; s++ {
		lg := model.Forward(batch.Tokens[s*batch.T:(s+1)*batch.T], 1, batch.T)
		shardSum, _ := nn.CrossEntropyShard(lg, batch.Targets[s*batch.T:(s+1)*batch.T], -1, counted)
		sum += shardSum
	}
	if d := math.Abs(sum/float64(counted) - fullLoss); d > 1e-9 {
		t.Fatalf("sharded loss %v vs full %v (Δ %v)", sum/float64(counted), fullLoss, d)
	}
}
