// Package apollo is the public facade of this reproduction of
// "APOLLO: SGD-like Memory, AdamW-level Performance" (MLSys 2025).
//
// It re-exports the pieces a downstream user needs to train a model with
// APOLLO in a few lines:
//
//	model := apollo.NewModel(apollo.ModelConfig{Vocab: 256, Dim: 64, Hidden: 176, Heads: 4, Layers: 4, MaxSeq: 128}, 1)
//	opt := apollo.NewMini(apollo.Hyper{LR: 0.01})
//	... compute gradients ...
//	opt.Step(model.Params().List())
//
// The full subsystem packages live under internal/ (tensor math, the
// transformer with manual backprop, the optimizer zoo, the synthetic corpus,
// the memory/throughput models and the experiment harness); this package is
// the stable surface.
package apollo

import (
	"apollo/internal/ckpt"
	"apollo/internal/core"
	"apollo/internal/data"
	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/optim"
	rt "apollo/internal/runtime"
	"apollo/internal/serve"
	"apollo/internal/tensor"
	"apollo/internal/train"
	"apollo/internal/zero"
)

// Re-exported model types.
type (
	// ModelConfig describes a LLaMA-style decoder.
	ModelConfig = nn.Config
	// Model is the decoder-only transformer with manual backprop.
	Model = nn.Model
	// Param is one trainable tensor with its gradient.
	Param = nn.Param
	// Matrix is the dense float32 matrix used throughout.
	Matrix = tensor.Matrix
	// RNG is the deterministic random generator.
	RNG = tensor.RNG
)

// Re-exported optimizer types.
type (
	// Hyper carries learning rate, betas, epsilon and weight decay.
	Hyper = optim.Hyper
	// Optimizer is the common optimizer interface.
	Optimizer = optim.Optimizer
	// Config parameterizes the APOLLO optimizer (Algorithm 1).
	Config = core.Config
	// APOLLO is the paper's optimizer.
	APOLLO = core.APOLLO
	// Granularity selects channel- vs tensor-wise scaling.
	Granularity = core.Granularity
)

// Granularity values.
const (
	Channel = core.Channel
	Tensor  = core.Tensor
)

// Projection kinds for Config.Projection.
const (
	RandomProjection = linalg.RandomProjection
	SVDProjection    = linalg.SVDProjection
)

// NewModel builds and initializes a model from cfg with the given seed.
func NewModel(cfg ModelConfig, seed uint64) *Model {
	return nn.NewModel(cfg, tensor.NewRNG(seed))
}

// New constructs an APOLLO optimizer (channel-wise scaling, random
// projection by default).
func New(h Hyper, cfg Config) *APOLLO { return core.New(h, cfg) }

// NewMini constructs APOLLO-Mini: rank-1 tensor-wise scaling with α = √128,
// SGD-like memory.
func NewMini(h Hyper) *APOLLO { return core.NewMini(h) }

// NewAdamW constructs the AdamW baseline.
func NewAdamW(h Hyper) Optimizer { return optim.NewAdamW(h) }

// NewSGD constructs SGD with optional momentum.
func NewSGD(h Hyper, momentum float64) Optimizer { return optim.NewSGD(h, momentum) }

// Training helpers.
type (
	// Corpus yields synthetic training/validation batches.
	Corpus = data.Corpus
	// PretrainConfig controls the pre-training loop.
	PretrainConfig = train.PretrainConfig
	// Result summarizes a training run.
	Result = train.Result
	// Schedule maps step → learning rate.
	Schedule = optim.Schedule
)

// NewCorpus builds the default synthetic corpus with the given vocabulary
// size and seeds.
func NewCorpus(vocab int, trainSeed, valSeed uint64) (*Corpus, error) {
	cfg := data.DefaultSourceConfig()
	cfg.Vocab = vocab
	src, err := data.NewSource(cfg)
	if err != nil {
		return nil, err
	}
	return data.NewCorpus(src, trainSeed, valSeed), nil
}

// Pretrain runs the standard pre-training loop.
func Pretrain(m *Model, opt Optimizer, corpus *Corpus, cfg PretrainConfig) Result {
	return train.Pretrain(m, opt, corpus, cfg)
}

// DPConfig controls data-parallel pre-training.
type DPConfig = train.DPConfig

// DPPretrain runs the data-parallel pre-training loop: the global batch is
// sharded across cfg.Replicas model replicas running concurrently, with an
// exact all-reduce before each optimizer step. Results are bit-identical
// for every replica count; see internal/train/dp.go for the contract.
func DPPretrain(m *Model, opt Optimizer, corpus *Corpus, cfg DPConfig) Result {
	return train.DPPretrain(m, opt, corpus, cfg)
}

// ZeRO is a ZeRO-style sharded-state wrapper around any optimizer: one
// inner optimizer under a deterministic, state-balanced map of which of N
// owner shards holds each parameter's (or row range's) state.
type ZeRO = zero.Sharded

// NewZeRO wraps the optimizer build returns (called once) in ZeRO-style
// state sharding across the given replica count. Every Optimizer is
// checkpointable by type; the wrapper additionally needs the per-parameter
// state introspection all of this package's optimizers provide and panics
// on one without it. Used with DPPretrain at the same replica count,
// training stays bit-identical to the unsharded single-replica run
// while each replica holds only ~1/N of the optimizer state (see
// internal/zero for the determinism contract; Result.ReplicaStateBytes
// reports the measured per-replica footprint). The wrapper is also a valid
// drop-in Optimizer for Pretrain's fused stage, where it is stepped over the
// whole list after backward: its ownership map is fixed from that list.
func NewZeRO(build func() Optimizer, replicas int) *ZeRO {
	return zero.NewSharded(build(), replicas)
}

// Checkpoint is a decoded bit-exact training snapshot (internal/ckpt): model
// weights, step/LR counters, the data-stream cursor and the optimizer's
// complete persistent state in a canonical, ZeRO-world-independent layout.
type Checkpoint = ckpt.State

// SaveCheckpoint snapshots a training run after `step` completed steps and
// writes it atomically to path. The optimizer must support checkpointing
// (every optimizer in this zoo does); a ZeRO wrapper gathers its shard-owned
// state into the canonical layout first.
func SaveCheckpoint(path string, step int, m *Model, opt Optimizer, corpus *Corpus) error {
	st, err := ckpt.Capture(step, m.Params().List(), opt, corpus)
	if err != nil {
		return err
	}
	return ckpt.SaveFile(path, st)
}

// LoadCheckpoint reads and fully CRC-verifies a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) { return ckpt.LoadFile(path) }

// RestoreCheckpoint installs a snapshot into live objects. Resuming with
// PretrainConfig.StartStep = st.Step then reproduces the uninterrupted run
// float-for-float; the optimizer may be wrapped in a different ZeRO world
// size than the one that saved (elastic resharding).
func RestoreCheckpoint(st *Checkpoint, m *Model, opt Optimizer, corpus *Corpus) error {
	return ckpt.Restore(st, m.Params().List(), opt, corpus)
}

// Snapshot is the weights-only view of a checkpoint (ckpt.ModelSnapshot):
// identity, parameter table and weight matrices — no optimizer state, no
// data cursor. Opening one costs model-weight memory (memmodel.ServeBytes),
// not the training footprint a full Checkpoint decode materializes.
type Snapshot = ckpt.ModelSnapshot

// OpenSnapshot reads the weights-only view of a checkpoint file: every
// section CRC is verified, but the optimizer sections are never decoded.
// Snapshot.InstallWeights restores the weights into a live model.
func OpenSnapshot(path string) (*Snapshot, error) { return ckpt.LoadModelFile(path) }

// ServeConfig parameterizes the checkpoint-streamed evaluation service
// (internal/serve): the served architecture, the validation corpus, and the
// LRU/batching knobs.
type ServeConfig = serve.Config

// EvalRegistry is the evaluation service's snapshot registry: path → open
// model with LRU caching and hot reload on file change.
type EvalRegistry = serve.Registry

// NewEvalRegistry builds a snapshot registry for one served architecture.
func NewEvalRegistry(cfg ServeConfig) (*EvalRegistry, error) { return serve.NewRegistry(cfg) }

// Serve runs the HTTP/JSON evaluation service on addr, preloading the given
// checkpoints: perplexity, option-logprob, zero-shot and fine-tune queries
// against any internal/ckpt snapshot, without retraining. A served
// perplexity query is bit-identical to train.Validate on the restored
// snapshot at any concurrency; see internal/serve for the contract.
func Serve(addr string, cfg ServeConfig, checkpoints ...string) error {
	return serve.ListenAndServe(addr, cfg, checkpoints)
}

// SetWorkers resizes the shared tensor worker pool (default GOMAXPROCS).
// Kernels are deterministic at any pool size, so this is a pure speed knob.
func SetWorkers(n int) { rt.SetWorkers(n) }

// Workers returns the shared worker pool's parallel width.
func Workers() int { return rt.Workers() }

// WarmupCosine returns the paper's pre-training schedule (10% linear warmup,
// cosine decay to 10% of peak).
func WarmupCosine(peak float64, totalSteps int) Schedule {
	return optim.NewWarmupCosine(peak, totalSteps)
}
