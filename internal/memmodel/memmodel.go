// Package memmodel provides the analytic memory accounting used to
// regenerate the paper's memory artifacts: Table 1's optimizer-state
// formulas, Table 2's weights+states column, Fig. 1 (middle)'s 7B breakdown
// and the 13B-DDP / 7B-under-12GB feasibility claims. The model works from
// the exact LLaMA layer shapes (Table 11) and per-method state formulas; the
// live optimizers in internal/optim and internal/core are cross-checked
// against it in tests so the two can never drift apart.
package memmodel

import (
	"fmt"
)

// Bytes per element for the storage formats the paper uses.
const (
	BytesBF16 = 2
	BytesFP32 = 4
	BytesINT8 = 1
)

// GiB converts bytes to binary gigabytes.
func GiB(b float64) float64 { return b / (1 << 30) }

// Shape is one weight matrix (or vector, rows=1).
type Shape struct {
	Name       string
	Rows, Cols int
	// Projectable marks 2-D matrices eligible for low-rank treatment.
	Projectable bool
}

// NumEl returns the element count.
func (s Shape) NumEl() int64 { return int64(s.Rows) * int64(s.Cols) }

// LLaMAConfig mirrors Table 11 plus the 13B configuration referenced in
// Section 5.3.
type LLaMAConfig struct {
	Name   string
	Vocab  int
	Hidden int
	Inter  int
	Heads  int
	Layers int
	Steps  int     // pre-training steps (Table 11)
	Tokens float64 // training tokens (Table 11)
}

// PaperConfigs returns the exact model family of Table 11 (+13B).
func PaperConfigs() []LLaMAConfig {
	return []LLaMAConfig{
		{Name: "60M", Vocab: 32000, Hidden: 512, Inter: 1376, Heads: 8, Layers: 8, Steps: 10_000, Tokens: 1.3e9},
		{Name: "130M", Vocab: 32000, Hidden: 768, Inter: 2048, Heads: 12, Layers: 12, Steps: 20_000, Tokens: 2.6e9},
		{Name: "350M", Vocab: 32000, Hidden: 1024, Inter: 2736, Heads: 16, Layers: 24, Steps: 60_000, Tokens: 7.8e9},
		{Name: "1B", Vocab: 32000, Hidden: 2048, Inter: 5461, Heads: 32, Layers: 24, Steps: 100_000, Tokens: 13.1e9},
		{Name: "7B", Vocab: 32000, Hidden: 4096, Inter: 11008, Heads: 32, Layers: 32, Steps: 150_000, Tokens: 19.7e9},
		{Name: "13B", Vocab: 32000, Hidden: 5120, Inter: 13824, Heads: 40, Layers: 40, Steps: 150_000, Tokens: 26e9},
	}
}

// ConfigByName looks up a paper config.
func ConfigByName(name string) (LLaMAConfig, error) {
	for _, c := range PaperConfigs() {
		if c.Name == name {
			return c, nil
		}
	}
	return LLaMAConfig{}, fmt.Errorf("memmodel: unknown config %q", name)
}

// Shapes expands a config into its full list of weight tensors.
func (c LLaMAConfig) Shapes() []Shape {
	var out []Shape
	out = append(out, Shape{Name: "embed", Rows: c.Vocab, Cols: c.Hidden, Projectable: true})
	for l := 0; l < c.Layers; l++ {
		p := fmt.Sprintf("layer%d.", l)
		out = append(out,
			Shape{Name: p + "norm1", Rows: 1, Cols: c.Hidden},
			Shape{Name: p + "wq", Rows: c.Hidden, Cols: c.Hidden, Projectable: true},
			Shape{Name: p + "wk", Rows: c.Hidden, Cols: c.Hidden, Projectable: true},
			Shape{Name: p + "wv", Rows: c.Hidden, Cols: c.Hidden, Projectable: true},
			Shape{Name: p + "wo", Rows: c.Hidden, Cols: c.Hidden, Projectable: true},
			Shape{Name: p + "norm2", Rows: 1, Cols: c.Hidden},
			Shape{Name: p + "gate", Rows: c.Inter, Cols: c.Hidden, Projectable: true},
			Shape{Name: p + "up", Rows: c.Inter, Cols: c.Hidden, Projectable: true},
			Shape{Name: p + "down", Rows: c.Hidden, Cols: c.Inter, Projectable: true},
		)
	}
	out = append(out,
		Shape{Name: "norm_f", Rows: 1, Cols: c.Hidden},
		Shape{Name: "head", Rows: c.Vocab, Cols: c.Hidden, Projectable: true},
	)
	return out
}

// NumParams returns the total parameter count.
func (c LLaMAConfig) NumParams() int64 {
	var total int64
	for _, s := range c.Shapes() {
		total += s.NumEl()
	}
	return total
}

// DefaultRank returns the paper's per-model default rank ("one-quarter of
// the original dimension" = hidden/4).
func (c LLaMAConfig) DefaultRank() int { return c.Hidden / 4 }

// Method identifies an optimizer for state accounting. The formulas are
// Table 1's, applied per projectable matrix in m×n orientation (m ≤ n);
// non-projectable tensors fall back to dense AdamW states, matching every
// reference implementation.
type Method struct {
	Name string
	// StateElems returns the optimizer-state element count for one m×n
	// projectable matrix with the given rank.
	StateElems func(m, n, r int64) int64
	// DenseFallback states per element for non-projectable tensors
	// (2 for Adam-family, 0 for SGD).
	FallbackPerElem float64
	// StateBytesPer is the storage width of state elements. The paper's
	// memory estimates count states in the training dtype (BF16, 2 bytes) —
	// e.g. Table 3's "1.6G" for rank-256 APOLLO on 7B is ≈843M elements ×
	// 2 bytes — so the fp-state methods use 2 here and the 8-bit variants 1.
	StateBytesPer float64
	// SVDProjElems, when non-nil, returns how many of StateElems are the
	// persisted SVD projection for one m×n projectable matrix. Those stay
	// fp32 even in the INT8 variants (only the moments are quantized), which
	// CheckpointBytes must know to predict serialized sizes.
	SVDProjElems func(m, n, r int64) int64
	// FixedRank, when non-zero, is the rank the method runs at whatever rank
	// it is asked about (APOLLO-Mini is rank 1 by definition).
	FixedRank int
}

// Rank is the rank the method's state is priced at for a requested rank.
func (m Method) Rank(requested int) int {
	if m.FixedRank > 0 {
		return m.FixedRank
	}
	return requested
}

// Paper-footprint methods (Table 1 plus the quantized variants).
var (
	MethodSGD = Method{
		Name:            "SGD",
		StateElems:      func(m, n, r int64) int64 { return 0 },
		FallbackPerElem: 0, StateBytesPer: BytesBF16,
	}
	MethodAdamW = Method{
		Name:            "AdamW",
		StateElems:      func(m, n, r int64) int64 { return 2 * m * n },
		FallbackPerElem: 2, StateBytesPer: BytesBF16,
	}
	MethodAdamMini = Method{
		Name:            "Adam-mini",
		StateElems:      func(m, n, r int64) int64 { return m*n + n },
		FallbackPerElem: 1, StateBytesPer: BytesBF16,
	}
	MethodGaLore = Method{
		Name:            "GaLore",
		StateElems:      func(m, n, r int64) int64 { return 2*n*r + m*r },
		FallbackPerElem: 2, StateBytesPer: BytesBF16,
		SVDProjElems: func(m, n, r int64) int64 { return m * r },
	}
	MethodFira = Method{
		Name:            "Fira",
		StateElems:      func(m, n, r int64) int64 { return 2*n*r + m*r + 1 },
		FallbackPerElem: 2, StateBytesPer: BytesBF16,
		SVDProjElems: func(m, n, r int64) int64 { return m * r },
	}
	MethodFlora = Method{
		Name:            "Flora",
		StateElems:      func(m, n, r int64) int64 { return 2*n*r + 1 },
		FallbackPerElem: 2, StateBytesPer: BytesBF16,
	}
	MethodAPOLLO = Method{
		Name:            "APOLLO",
		StateElems:      func(m, n, r int64) int64 { return 2*n*r + 2 },
		FallbackPerElem: 2, StateBytesPer: BytesBF16,
	}
	MethodAPOLLOMini = Method{
		Name:            "APOLLO-Mini",
		StateElems:      func(m, n, r int64) int64 { return 2*n + 2 },
		FallbackPerElem: 2, StateBytesPer: BytesBF16, FixedRank: 1,
	}
	MethodAdam8bit = Method{
		Name:            "8-bit Adam",
		StateElems:      func(m, n, r int64) int64 { return 2 * m * n },
		FallbackPerElem: 2, StateBytesPer: BytesINT8,
	}
	MethodGaLore8bit = Method{
		Name:            "8-bit GaLore",
		StateElems:      func(m, n, r int64) int64 { return 2*n*r + m*r },
		FallbackPerElem: 2, StateBytesPer: BytesINT8,
		SVDProjElems: func(m, n, r int64) int64 { return m * r },
	}
)

// MethodByName resolves a method.
func MethodByName(name string) (Method, error) {
	for _, m := range []Method{
		MethodSGD, MethodAdamW, MethodAdamMini, MethodGaLore, MethodFira,
		MethodFlora, MethodAPOLLO, MethodAPOLLOMini, MethodAdam8bit, MethodGaLore8bit,
	} {
		if m.Name == name {
			return m, nil
		}
	}
	return Method{}, fmt.Errorf("memmodel: unknown method %q", name)
}

// StateElems returns the optimizer-state element count for an arbitrary
// shape list under the method at the given rank — the shape-level core of
// OptimizerStateBytes, exposed so live models (whose parameter shapes are
// not a paper config) can be predicted too and cross-checked against
// measured Optimizer.StateBytes (see internal/bench's parity test).
func StateElems(shapes []Shape, m Method, rank int) float64 {
	rank = m.Rank(rank)
	var elems float64
	for _, s := range shapes {
		rows, cols := int64(s.Rows), int64(s.Cols)
		mm, nn := rows, cols
		if mm > nn {
			mm, nn = nn, mm
		}
		if s.Projectable && mm > int64(rank) {
			elems += float64(m.StateElems(mm, nn, int64(rank)))
		} else {
			elems += m.FallbackPerElem * float64(s.NumEl())
		}
	}
	return elems
}

// OptimizerStateBytes returns the optimizer-state footprint for cfg under
// the method at the given rank. APOLLO-Mini ignores the rank (always 1).
func OptimizerStateBytes(cfg LLaMAConfig, m Method, rank int) float64 {
	return StateElems(cfg.Shapes(), m, rank) * m.StateBytesPer
}

// ShardedOptimizerStateBytes predicts the per-replica optimizer-state
// footprint under ZeRO-style partitioning across world replicas: the
// unsharded footprint divided evenly. internal/zero's partitioner balances
// by introspected state cost at row-segment granularity, so the measured
// per-replica deviation from this ideal is bounded by the largest
// indivisible (projected) parameter's state — small by construction, and
// tolerance-checked in the `zero` bench experiment.
func ShardedOptimizerStateBytes(cfg LLaMAConfig, m Method, rank, world int) float64 {
	b := OptimizerStateBytes(cfg, m, rank)
	if world > 1 {
		b /= float64(world)
	}
	return b
}

// Checkpoint-format accounting (mirrors internal/ckpt's binary layout).
// The data payload dominates; the per-parameter constants cover the META
// table entry and the OPTP bookkeeping (presence flag, counters, projector
// seed/RNG phases, matrix headers), which vary a little across methods —
// predictions land within a few percent of the serialized file and are
// cross-checked by the `ckpt` bench experiment.
const (
	ckptFixedBytes          = 16 + 5*16 + 8 + 32 // header, 5 section headers, data cursor, name + globals
	ckptParamMetaBytes      = 11                 // length prefix + kind + dims (plus the name itself)
	ckptParamStateBytes     = 64
	ckptInt8GroupSize       = 128
	ckptWeightBytesPerElem  = 4 // live training is float32
	ckptFPStateBytesPerElem = 4
)

// CheckpointBytes predicts the on-disk size of an internal/ckpt snapshot
// for a model with the given shapes trained under the method at the given
// rank. Unlike the paper-table formulas (which count states in BF16), the
// checkpoint serializes the *live* float32 states plus the float32 weights;
// INT8 methods serialize one byte per code plus group scales. The predicted
// size is world-independent: a ZeRO-sharded run gathers its state into the
// same canonical layout before writing.
func CheckpointBytes(shapes []Shape, m Method, rank int) float64 {
	rank = m.Rank(rank)
	statePer := float64(ckptFPStateBytesPerElem)
	if m.StateBytesPer == BytesINT8 { //apollo:exactfloat BytesINT8 is an exact constant discriminator, never computed
		statePer = 1 + float64(BytesFP32)/ckptInt8GroupSize
	}
	total := float64(ckptFixedBytes)
	for _, s := range shapes {
		total += float64(len(s.Name)) + ckptParamMetaBytes
		total += ckptWeightBytesPerElem * float64(s.NumEl())
		total += ckptParamStateBytes
	}
	elems := StateElems(shapes, m, rank)
	// Persisted SVD projections serialize fp32 even when the moments are
	// INT8 (only the moments are quantized).
	var proj float64
	if m.SVDProjElems != nil {
		for _, s := range shapes {
			mm, nn := int64(s.Rows), int64(s.Cols)
			if mm > nn {
				mm, nn = nn, mm
			}
			if s.Projectable && mm > int64(rank) {
				proj += float64(m.SVDProjElems(mm, nn, int64(rank)))
			}
		}
	}
	total += (elems-proj)*statePer + proj*ckptFPStateBytesPerElem
	return total
}

// Serve-footprint accounting. An open snapshot in the evaluation service
// holds the fp32 model weights and per-tensor bookkeeping only: the
// weights-only read path (ckpt.ReadModel) never decodes the OPTG/OPTP
// optimizer sections, and gradient accumulators are released after load
// (nn.ParamSet.FreeGrads). The per-parameter constant covers the nn.Param
// and matrix headers plus the registry's table entry.
const (
	serveFixedBytes = 192 // registry entry + snapshot identity fields
	serveParamBytes = 64  // nn.Param + tensor.Matrix headers (plus the name)
)

// ServeBytes predicts the resident bytes of serving a model with the given
// shapes: fp32 weights plus small fixed bookkeeping — independent of the
// optimizer that trained the snapshot, which is the point of the read-only
// open path. Cross-checked against the measured serve.Entry footprint (±2%)
// by internal/serve's tests and the `serve` bench experiment.
func ServeBytes(shapes []Shape) float64 {
	total := float64(serveFixedBytes)
	for _, s := range shapes {
		total += float64(len(s.Name)) + serveParamBytes + BytesFP32*float64(s.NumEl())
	}
	return total
}

// ServeBytesFor is the paper-config convenience form.
func ServeBytesFor(cfg LLaMAConfig) float64 { return ServeBytes(cfg.Shapes()) }

// CheckpointBytesFor is the paper-config convenience form.
func CheckpointBytesFor(cfg LLaMAConfig, m Method, rank int) float64 {
	if rank == 0 {
		rank = cfg.DefaultRank()
	}
	return CheckpointBytes(cfg.Shapes(), m, rank)
}

// Plan describes a full training-memory scenario.
type Plan struct {
	Config LLaMAConfig
	Method Method
	Rank   int

	SeqLen     int
	MicroBatch int

	WeightBytesPer float64 // 2 (BF16) or 1 (+scales) for INT8
	Int8Weights    bool    // group-quantized weights (Q- variants)
	GroupSize      int     // INT8 group size (default 128)

	// LayerWiseGrad enables the layer-wise gradient update strategy (Lv et
	// al., 2023): only one layer's gradient is resident at a time.
	LayerWiseGrad bool
	// ActivationCkpt recomputes activations in the backward pass, keeping
	// only per-layer boundary activations.
	ActivationCkpt bool
	// ZeroWorld partitions optimizer states ZeRO-style across this many
	// data-parallel replicas (0 or 1 = unsharded); the plan then describes
	// one replica's footprint.
	ZeroWorld int
}

// Breakdown is the per-component memory accounting in bytes.
type Breakdown struct {
	Weights     float64
	Gradients   float64
	States      float64
	Activations float64
}

// Total sums the components.
func (b Breakdown) Total() float64 {
	return b.Weights + b.Gradients + b.States + b.Activations
}

// Compute evaluates the plan.
func Compute(p Plan) Breakdown {
	cfg := p.Config
	params := float64(cfg.NumParams())

	var out Breakdown
	if p.Int8Weights {
		gs := p.GroupSize
		if gs <= 0 {
			gs = 128
		}
		out.Weights = params*BytesINT8 + params/float64(gs)*BytesFP32
	} else {
		wb := p.WeightBytesPer
		if wb == 0 { //apollo:exactfloat zero is the unset-field sentinel; default fills only untouched fields
			wb = BytesBF16
		}
		out.Weights = params * wb
	}

	gradBytes := float64(BytesBF16)
	if p.LayerWiseGrad {
		// Only the largest single layer's gradients are resident.
		var largest int64
		perLayer := int64(0)
		for _, s := range cfg.Shapes() {
			if s.Rows == 1 {
				continue
			}
			perLayer = s.NumEl()
			if perLayer > largest {
				largest = perLayer
			}
		}
		// One transformer block (4 attn + 3 mlp) or the embedding/head,
		// whichever is larger.
		block := int64(4*cfg.Hidden*cfg.Hidden + 3*cfg.Hidden*cfg.Inter)
		embed := int64(cfg.Vocab * cfg.Hidden)
		resident := block
		if embed > resident {
			resident = embed
		}
		out.Gradients = float64(resident) * gradBytes
	} else {
		out.Gradients = params * gradBytes
	}

	rank := p.Rank
	if rank == 0 {
		rank = cfg.DefaultRank()
	}
	out.States = OptimizerStateBytes(cfg, p.Method, rank)
	if p.ZeroWorld > 1 {
		out.States /= float64(p.ZeroWorld)
	}

	out.Activations = activationBytes(cfg, p.SeqLen, p.MicroBatch, p.ActivationCkpt)
	return out
}

// activationBytes estimates activation memory for one forward/backward.
// Without full checkpointing it uses ≈29·h bytes per token per layer — the
// Megatron accounting with the attention-probability term removed (selective
// recomputation / fused attention, standard for this model family), which
// calibrates the 7B feasible micro-batches to the paper's 4 (AdamW), 8
// (GaLore) and 16 (APOLLO). With full checkpointing only per-layer boundary
// activations and one live layer remain.
func activationBytes(cfg LLaMAConfig, seq, micro int, ckpt bool) float64 {
	if seq == 0 || micro == 0 {
		return 0
	}
	tokens := float64(seq * micro)
	h := float64(cfg.Hidden)
	perTokenLayer := 29 * h
	if ckpt {
		// Boundary activations for every layer + one recomputed live layer.
		boundary := tokens * h * BytesBF16 * float64(cfg.Layers)
		live := tokens * perTokenLayer
		return boundary + live
	}
	return tokens * perTokenLayer * float64(cfg.Layers)
}

// Table1Row renders the symbolic Table 1 entry for a method.
type Table1Row struct {
	Method       string
	StateFormula string
	FullRankGrad bool
	FullRankWts  bool
	PreTraining  bool
	NoSVD        bool
}

// Table1 reproduces the paper's comparison table.
func Table1() []Table1Row {
	return []Table1Row{
		{Method: "APOLLO-Mini", StateFormula: "2n+2", FullRankGrad: true, FullRankWts: true, PreTraining: true, NoSVD: true},
		{Method: "APOLLO", StateFormula: "2nr+2", FullRankGrad: true, FullRankWts: true, PreTraining: true, NoSVD: true},
		{Method: "Fira", StateFormula: "2nr+mr+1", FullRankGrad: true, FullRankWts: true, PreTraining: true, NoSVD: false},
		{Method: "GaLore", StateFormula: "2nr+mr", FullRankGrad: false, FullRankWts: true, PreTraining: true, NoSVD: false},
		{Method: "Flora", StateFormula: "2nr+1", FullRankGrad: false, FullRankWts: true, PreTraining: false, NoSVD: true},
	}
}
