// Package bench is the experiment harness: a registry with one runner per
// table and figure in the paper's evaluation section. Each runner rebuilds
// the experiment at proxy scale (CPU-trainable models with the same
// architecture family), prints the same rows/series the paper reports, and
// cites the published value alongside the measured one. `apollo-bench
// -list` prints the experiment → paper artefact index; how fast anything
// runs is benchmark/'s question, not this package's.
package bench

import (
	"fmt"

	"apollo/internal/core"
	"apollo/internal/data"
	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// Proxy is a scaled-down stand-in for one of the paper's LLaMA sizes. The
// family preserves the paper's relative proportions (width, depth and
// SwiGLU ratio grow together) so cross-size trends survive the rescale.
type Proxy struct {
	Name  string // paper-scale name this proxies ("60M", …)
	Model nn.Config
	Steps int // quick-scale training steps
	Batch int
	Seq   int
	LR    float64 // baseline peak LR (shared across methods, as in Table 2)
}

// Vocab shared by all proxies; 256 tokens keeps the softmax cheap while the
// synthetic source still has non-trivial structure.
const proxyVocab = 256

// Proxies returns the proxy family mirroring Table 11.
func Proxies() []Proxy {
	return []Proxy{
		{Name: "60M", Model: nn.Config{Vocab: proxyVocab, Dim: 32, Hidden: 88, Heads: 4, Layers: 2, MaxSeq: 128}, Steps: 400, Batch: 8, Seq: 32, LR: 3e-3},
		{Name: "130M", Model: nn.Config{Vocab: proxyVocab, Dim: 48, Hidden: 128, Heads: 4, Layers: 3, MaxSeq: 128}, Steps: 400, Batch: 8, Seq: 32, LR: 3e-3},
		{Name: "350M", Model: nn.Config{Vocab: proxyVocab, Dim: 64, Hidden: 176, Heads: 4, Layers: 4, MaxSeq: 128}, Steps: 300, Batch: 8, Seq: 32, LR: 2e-3},
		{Name: "1B", Model: nn.Config{Vocab: proxyVocab, Dim: 96, Hidden: 256, Heads: 6, Layers: 5, MaxSeq: 128}, Steps: 300, Batch: 8, Seq: 32, LR: 2e-3},
		{Name: "7B", Model: nn.Config{Vocab: proxyVocab, Dim: 128, Hidden: 344, Heads: 8, Layers: 6, MaxSeq: 128}, Steps: 300, Batch: 8, Seq: 32, LR: 1.5e-3},
	}
}

// ProxyByName looks up a proxy.
func ProxyByName(name string) (Proxy, error) {
	for _, p := range Proxies() {
		if p.Name == name {
			return p, nil
		}
	}
	return Proxy{}, fmt.Errorf("bench: unknown proxy %q", name)
}

// DefaultRank mirrors the paper's "one-quarter of the original dimension".
func (p Proxy) DefaultRank() int { return p.Model.Dim / 4 }

// NewCorpus builds the shared synthetic corpus for a proxy run.
func NewCorpus(seed uint64) (*data.Corpus, error) {
	cfg := data.DefaultSourceConfig()
	cfg.Vocab = proxyVocab
	src, err := data.NewSource(cfg)
	if err != nil {
		return nil, err
	}
	return data.NewCorpus(src, seed, seed+0x5EED), nil
}

// BuildOptimizer constructs any method in the zoo by table name. rank ≤ 0
// resolves to the proxy default (dim/4).
func BuildOptimizer(name string, lr float64, rank int, seed uint64) (optim.Optimizer, error) {
	h := optim.Hyper{LR: lr, WeightDecay: 0}
	lrCfg := func(proj linalg.ProjectionKind) optim.LowRankConfig {
		return optim.LowRankConfig{Rank: rank, Projection: proj, Seed: seed, Scale: 0.25, UpdateGap: 50}
	}
	switch name {
	case "AdamW":
		return optim.NewAdamW(h), nil
	case "SGD":
		return optim.NewSGD(h, 0), nil
	case "SGD-M":
		return optim.NewSGD(h, 0.9), nil
	case "Adam-mini":
		return optim.NewAdamMini(h), nil
	case "8-bit Adam":
		return optim.NewAdam8bit(h, seed), nil
	case "8-bit GaLore":
		return optim.NewGaLore8bit(h, lrCfg(linalg.SVDProjection)), nil
	case "Low-Rank":
		return optim.NewFactorized(h, optim.FactorizedConfig{Mode: optim.ModeLowRank, Rank: rank, Seed: seed}), nil
	case "LoRA":
		return optim.NewFactorized(h, optim.FactorizedConfig{Mode: optim.ModeLoRA, Rank: rank, Seed: seed}), nil
	case "ReLoRA":
		return optim.NewFactorized(h, optim.FactorizedConfig{Mode: optim.ModeReLoRA, Rank: rank, MergeEvery: 50, Seed: seed}), nil
	case "DoRA":
		return optim.NewFactorized(h, optim.FactorizedConfig{Mode: optim.ModeDoRA, Rank: rank, Seed: seed}), nil
	case "GaLore":
		return optim.NewGaLore(h, lrCfg(linalg.SVDProjection)), nil
	case "GaLore-RP":
		return optim.NewGaLore(h, lrCfg(linalg.RandomProjection)), nil
	case "Fira":
		return optim.NewFira(h, lrCfg(linalg.SVDProjection)), nil
	case "Flora":
		return optim.NewFlora(h, lrCfg(linalg.RandomProjection)), nil
	case "APOLLO":
		return core.New(h, core.Config{Rank: rank, Granularity: core.Channel, Seed: seed, UpdateGap: 50}), nil
	case "APOLLO w. SVD":
		return core.New(h, core.Config{Rank: rank, Granularity: core.Channel, Projection: linalg.SVDProjection, Seed: seed, UpdateGap: 50}), nil
	case "APOLLO-Tensor":
		return core.New(h, core.Config{Rank: rank, Granularity: core.Tensor, Scale: 1, Seed: seed, UpdateGap: 50}), nil
	case "APOLLO-Mini":
		return core.NewMini(h), nil
	case "Q-APOLLO":
		inner := core.New(h, core.Config{Rank: rank, Granularity: core.Channel, Seed: seed, UpdateGap: 50})
		return optim.NewWeightQuantized(inner, seed+1), nil
	case "Q-APOLLO-Mini":
		return optim.NewWeightQuantized(core.NewMini(h), seed+1), nil
	case "Q-GaLore":
		return optim.NewWeightQuantized(optim.NewGaLore(h, lrCfg(linalg.SVDProjection)), seed+1), nil
	case "StructuredAdamW-channel":
		return core.NewStructuredAdamW(h, core.Channel), nil
	case "StructuredAdamW-tensor":
		return core.NewStructuredAdamW(h, core.Tensor), nil
	default:
		return nil, fmt.Errorf("bench: unknown optimizer %q", name)
	}
}

// OptimizerBuilder validates the arguments once and returns a constructor
// that builds a fresh, identical optimizer on every call — the shape
// zero.NewSharded wants (one instance per shard) and what a runner comparing
// several runs of one method needs.
func OptimizerBuilder(name string, lr float64, rank int, seed uint64) (func() optim.Optimizer, error) {
	if _, err := BuildOptimizer(name, lr, rank, seed); err != nil {
		return nil, err
	}
	return func() optim.Optimizer {
		o, err := BuildOptimizer(name, lr, rank, seed)
		if err != nil {
			panic(err) // the same arguments built above
		}
		return o
	}, nil
}

// StateRank is the rank memmodel must be asked about for the optimizer
// BuildOptimizer(name, …, rank, …) returns. APOLLO-Mini is rank 1 by
// definition and ignores the rank it is handed; memmodel sends a matrix to
// the dense fallback once min(m,n) ≤ rank, so passing the caller's rank
// through would mispredict Mini's state whenever that rank reaches a
// layer's width.
func StateRank(name string, rank int) int {
	if name == "APOLLO-Mini" {
		return 1
	}
	return rank
}

// NewProxyModel instantiates the proxy's model.
func (p Proxy) NewProxyModel(seed uint64) *nn.Model {
	return nn.NewModel(p.Model, tensor.NewRNG(seed))
}
