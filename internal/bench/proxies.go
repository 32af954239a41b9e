// Package bench is the experiment harness: a registry with one runner per
// table and figure in the paper's evaluation section. Each runner rebuilds
// the experiment at proxy scale (CPU-trainable models with the same
// architecture family), prints the same rows/series the paper reports, and
// cites the published value alongside the measured one. `apollo-bench
// -list` prints the experiment → paper artefact index; how fast anything
// runs is benchmark/'s question, not this package's.
//
// The tables are methods × sizes. A size is a Proxy; a method is a row of
// the catalogue in this file (Methods) — constructor, rank policy, recipe
// and memmodel row — and nothing else knows a method by name. Every runner
// that trains one does it through pretrainOne, so every table applies the
// same recipe; fig3 alone keeps its own loop, because its variants are not
// catalogue methods (it zeroes the limiter on a live optimizer).
package bench

import (
	"fmt"
	"math"
	"strings"

	"apollo/internal/core"
	"apollo/internal/data"
	"apollo/internal/linalg"
	"apollo/internal/memmodel"
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

// Method is one row of the method catalogue: what a paper table needs to
// build, train, price and describe an optimizer.
type Method struct {
	Name   string
	Family string // README grouping
	// New builds a fresh instance per call.
	New func(h optim.Hyper, rank int, seed uint64) optim.Optimizer
	// FixedRank > 0 is the rank the row always runs at, whatever is asked
	// for (APOLLO-Mini is rank 1 by definition).
	FixedRank int
	// LRScale × Proxy.LR is the paper-table peak LR: the projected family
	// inherits GaLore's higher LR (0.01 vs the ~1e-3 tuned AdamW baseline,
	// Appendix A.4), which the shared Proxy.LR does not reflect. The 4× was
	// chosen by a sweep at proxy scale.
	LRScale float64
	// Limiter rows train unclipped: APOLLO relies on its norm-growth limiter.
	Limiter bool
	// Mem is the memmodel row whose Table 1 formula the live state matches
	// exactly (the parity tests range over these); nil where there is none.
	Mem *memmodel.Method
}

// familyDense is the one family code branches on: its rows take no rank.
const familyDense = "dense"

type newFunc = func(h optim.Hyper, rank int, seed uint64) optim.Optimizer

// projected adapts a GaLore-family constructor at the proxy-scale α = 0.25
// and refresh gap 50.
func projected[O optim.Optimizer](mk func(optim.Hyper, optim.LowRankConfig) O, proj linalg.ProjectionKind) newFunc {
	return func(h optim.Hyper, rank int, seed uint64) optim.Optimizer {
		return mk(h, optim.LowRankConfig{Rank: rank, Projection: proj, Seed: seed, Scale: 0.25, UpdateGap: 50})
	}
}

func factorized(mode optim.FactorizedMode, mergeEvery int) newFunc {
	return func(h optim.Hyper, rank int, seed uint64) optim.Optimizer {
		return optim.NewFactorized(h, optim.FactorizedConfig{Mode: mode, Rank: rank, MergeEvery: mergeEvery, Seed: seed})
	}
}

// apolloAt fills rank, seed and the proxy-scale refresh gap into cfg.
func apolloAt(cfg core.Config) newFunc {
	return func(h optim.Hyper, rank int, seed uint64) optim.Optimizer {
		c := cfg // New runs concurrently under -jobs N
		c.Rank, c.Seed, c.UpdateGap = rank, seed, 50
		return core.New(h, c)
	}
}

// newMini is core.NewMini at the row's seed.
func newMini(h optim.Hyper, _ int, seed uint64) optim.Optimizer {
	return core.New(h, core.Config{Rank: 1, Granularity: core.Tensor, Seed: seed})
}

// quantized wraps a row's optimizer in INT8 master weights (the Q- variants).
func quantized(inner newFunc) newFunc {
	return func(h optim.Hyper, rank int, seed uint64) optim.Optimizer {
		return optim.NewWeightQuantized(inner(h, rank, seed), seed+1)
	}
}

// methods is the catalogue, in README order. The SVD variants persist their
// r×m projection in place of a seed, which is Fira's formula (2nr+mr+1);
// GaLore over a random projection keeps a seed instead, which is Flora's.
// Tensor-wise scaling over an SVD projection runs at α = 1: the √128 default
// compensates the √n norm deficit of a *random* rank-1 projection (Theorem
// A.4); an SVD projection captures the dominant gradient energy with no such
// deficit, so leaving √128 in place over-scales the update by ~√n and
// diverges.
var methods = []Method{
	{Name: "AdamW", Family: familyDense, LRScale: 1, Mem: &memmodel.MethodAdamW,
		New: func(h optim.Hyper, _ int, _ uint64) optim.Optimizer { return optim.NewAdamW(h) }},
	{Name: "SGD", Family: familyDense, LRScale: 1, Mem: &memmodel.MethodSGD,
		New: func(h optim.Hyper, _ int, _ uint64) optim.Optimizer { return optim.NewSGD(h, 0) }},
	{Name: "SGD-M", Family: familyDense, LRScale: 1,
		New: func(h optim.Hyper, _ int, _ uint64) optim.Optimizer { return optim.NewSGD(h, 0.9) }},
	{Name: "Adam-mini", Family: familyDense, LRScale: 1, Mem: &memmodel.MethodAdamMini,
		New: func(h optim.Hyper, _ int, _ uint64) optim.Optimizer { return optim.NewAdamMini(h) }},
	{Name: "8-bit Adam", Family: familyDense, LRScale: 1, Mem: &memmodel.MethodAdam8bit,
		New: func(h optim.Hyper, _ int, seed uint64) optim.Optimizer { return optim.NewAdam8bit(h, seed) }},
	{Name: "8-bit GaLore", Family: "projected", LRScale: 4, Mem: &memmodel.MethodGaLore8bit,
		New: projected(optim.NewGaLore8bit, linalg.SVDProjection)},
	{Name: "Low-Rank", Family: "factorized", LRScale: 1, New: factorized(optim.ModeLowRank, 0)},
	{Name: "LoRA", Family: "factorized", LRScale: 1, New: factorized(optim.ModeLoRA, 0)},
	{Name: "ReLoRA", Family: "factorized", LRScale: 1, New: factorized(optim.ModeReLoRA, 50)},
	{Name: "DoRA", Family: "factorized", LRScale: 1, New: factorized(optim.ModeDoRA, 0)},
	{Name: "GaLore", Family: "projected", LRScale: 4, Mem: &memmodel.MethodGaLore,
		New: projected(optim.NewGaLore, linalg.SVDProjection)},
	{Name: "GaLore-RP", Family: "projected", LRScale: 4, Mem: &memmodel.MethodFlora,
		New: projected(optim.NewGaLore, linalg.RandomProjection)},
	{Name: "Fira", Family: "projected", LRScale: 4, Mem: &memmodel.MethodFira,
		New: projected(optim.NewFira, linalg.SVDProjection)},
	{Name: "Flora", Family: "projected", LRScale: 4, Mem: &memmodel.MethodFlora,
		New: projected(optim.NewFlora, linalg.RandomProjection)},
	{Name: "APOLLO", Family: "APOLLO", LRScale: 4, Limiter: true, Mem: &memmodel.MethodAPOLLO,
		New: apolloAt(core.Config{Granularity: core.Channel})},
	{Name: "APOLLO w. SVD", Family: "APOLLO", LRScale: 4, Limiter: true, Mem: &memmodel.MethodFira,
		New: apolloAt(core.Config{Granularity: core.Channel, Projection: linalg.SVDProjection})},
	{Name: "APOLLO-Tensor", Family: "APOLLO", LRScale: 4, Limiter: true, Mem: &memmodel.MethodAPOLLO,
		New: apolloAt(core.Config{Granularity: core.Tensor, Scale: 1})},
	{Name: "APOLLO-Mini", Family: "APOLLO", FixedRank: 1, LRScale: 4, Limiter: true, Mem: &memmodel.MethodAPOLLOMini,
		New: newMini},
	{Name: "Q-APOLLO", Family: "APOLLO", LRScale: 4, Limiter: true,
		New: quantized(apolloAt(core.Config{Granularity: core.Channel}))},
	{Name: "Q-APOLLO-Mini", Family: "APOLLO", FixedRank: 1, LRScale: 4, Limiter: true, New: quantized(newMini)},
	{Name: "Q-GaLore", Family: "projected", LRScale: 4,
		New: quantized(projected(optim.NewGaLore, linalg.SVDProjection))},
	{Name: "StructuredAdamW-channel", Family: familyDense, LRScale: 1,
		New: func(h optim.Hyper, _ int, _ uint64) optim.Optimizer { return core.NewStructuredAdamW(h, core.Channel) }},
	{Name: "StructuredAdamW-tensor", Family: familyDense, LRScale: 1,
		New: func(h optim.Hyper, _ int, _ uint64) optim.Optimizer { return core.NewStructuredAdamW(h, core.Tensor) }},
	// Fig. 5's Mini(SVD) bar, Table 9's "w. SVD / tensor" row, and Fig. 5d's
	// APOLLO-Mini line: tensor-wise scaling at rank r with α = √(128/r),
	// which is APOLLO-Mini's α at r = 1.
	{Name: "APOLLO-Mini w. SVD", Family: "APOLLO", FixedRank: 1, LRScale: 4, Limiter: true, Mem: &memmodel.MethodFira,
		New: apolloAt(core.Config{Granularity: core.Tensor, Scale: 1, Projection: linalg.SVDProjection})},
	{Name: "APOLLO-Tensor w. SVD", Family: "APOLLO", LRScale: 4, Limiter: true, Mem: &memmodel.MethodFira,
		New: apolloAt(core.Config{Granularity: core.Tensor, Scale: 1, Projection: linalg.SVDProjection})},
	{Name: "APOLLO-Mini (rank r)", Family: "APOLLO", LRScale: 4, Limiter: true, Mem: &memmodel.MethodAPOLLO,
		New: func(h optim.Hyper, rank int, seed uint64) optim.Optimizer {
			return core.New(h, core.Config{Rank: rank, Granularity: core.Tensor, Scale: math.Sqrt(128 / float64(rank)), Seed: seed, UpdateGap: 50})
		}},
}

// Methods returns the catalogue in README order.
func Methods() []Method { return methods }

// MethodByName is the one by-name lookup into the catalogue.
func MethodByName(name string) (Method, error) {
	for _, m := range methods {
		if m.Name == name {
			return m, nil
		}
	}
	names := make([]string, len(methods))
	for i, m := range methods {
		names[i] = m.Name
	}
	return Method{}, fmt.Errorf("bench: unknown method %q (the catalogue has: %s)", name, strings.Join(names, ", "))
}

// Rank is the rank the row runs at on a model of width dim: its fixed rank if
// it has one, the paper's dim/4 for requested ≤ 0, else what was asked for.
func (m Method) Rank(requested, dim int) int {
	switch {
	case m.FixedRank > 0:
		return m.FixedRank
	case requested <= 0:
		return dim / 4
	}
	return requested
}

// BuildOptimizer builds a catalogue method by name at an explicit rank (tests
// and examples have no proxy to default from): a ranked row wants one ≥ 1.
func BuildOptimizer(name string, lr float64, rank int, seed uint64) (optim.Optimizer, error) {
	m, err := MethodByName(name)
	if err != nil {
		return nil, err
	}
	if rank = m.Rank(rank, 0); rank < 1 && m.Family != familyDense { // dim 0: no default to fall back on
		return nil, fmt.Errorf("bench: %s needs a rank ≥ 1, got %d", name, rank)
	}
	return m.New(optim.Hyper{LR: lr}, rank, seed), nil
}

// NewProxyModel instantiates the proxy's model.
func (p Proxy) NewProxyModel(seed uint64) *nn.Model {
	return nn.NewModel(p.Model, tensor.NewRNG(seed))
}
