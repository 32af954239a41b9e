package nn

import (
	"fmt"
	"math"

	"apollo/internal/tensor"
)

// Config describes a LLaMA-style decoder. The paper's Table 11 configs
// (60M–7B) are reproduced at reduced width by the presets in the bench
// package; this struct carries the exact architecture either way.
type Config struct {
	Vocab  int // vocabulary size
	Dim    int // model (hidden) width
	Hidden int // SwiGLU intermediate width
	Heads  int // attention heads
	Layers int // transformer blocks
	MaxSeq int // maximum sequence length (RoPE table size)
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.Vocab <= 0 || c.Dim <= 0 || c.Hidden <= 0 || c.Heads <= 0 || c.Layers <= 0 || c.MaxSeq <= 0 {
		return fmt.Errorf("nn: non-positive config field: %+v", c)
	}
	if c.Dim%c.Heads != 0 {
		return fmt.Errorf("nn: dim %d not divisible by heads %d", c.Dim, c.Heads)
	}
	if (c.Dim/c.Heads)%2 != 0 {
		return fmt.Errorf("nn: head dim %d must be even for RoPE", c.Dim/c.Heads)
	}
	return nil
}

// NumParams returns the exact trainable parameter count for the config.
func (c Config) NumParams() int {
	perBlock := 4*c.Dim*c.Dim + 3*c.Dim*c.Hidden + 2*c.Dim
	return c.Vocab*c.Dim + c.Layers*perBlock + c.Dim + c.Vocab*c.Dim
}

// Block is one pre-norm transformer layer.
type Block struct {
	Norm1 *RMSNorm
	Attn  *Attention
	Norm2 *RMSNorm
	MLP   *SwiGLU

	ws *workspace
}

// Forward applies x + Attn(Norm1(x)) then x + MLP(Norm2(x)). The sums land
// in the sub-layer outputs, which nothing else keeps.
func (b *Block) Forward(x *tensor.Matrix, batch, seq int) *tensor.Matrix {
	h := b.Attn.Forward(b.Norm1.Forward(x), batch, seq)
	addInto(h, x)
	y := b.MLP.Forward(b.Norm2.Forward(h))
	addInto(y, h)
	return y
}

// Backward propagates dy through the block into dx; everything it takes from
// the arena is handed back, the MLP's share before attention takes its own.
func (b *Block) Backward(dx, dy *tensor.Matrix) {
	outer := b.ws.mark()
	// y = h + MLP(Norm2(h)); dh = dy + Norm2ᵀ(MLPᵀ(dy))
	dh := b.ws.matrix(dy.Rows, dy.Cols)
	inner := b.ws.mark()
	b.Norm2.backwardInto(dh, b.MLP.Backward(dy))
	b.ws.release(inner)
	addInto(dh, dy)
	// h = x + Attn(Norm1(x)); dx = dh + Norm1ᵀ(Attnᵀ(dh))
	b.Norm1.backwardInto(dx, b.Attn.Backward(dh))
	addInto(dx, dh)
	b.ws.release(outer)
}

// addInto computes dst = a + dst elementwise (a is the left operand, as in
// tensor.Add(a, dst)).
func addInto(dst, a *tensor.Matrix) {
	tensor.Parallel(len(dst.Data), 1<<14, func(i0, i1 int) {
		d, s := dst.Data[i0:i1], a.Data[i0:i1]
		for i, v := range s {
			d[i] = v + d[i]
		}
	})
}

// bind points the block and every layer in it at the model's arena.
func (b *Block) bind(ws *workspace) {
	b.ws = ws
	b.Norm1.ws, b.Norm2.ws = ws, ws
	b.Attn.ws, b.MLP.ws = ws, ws
	for _, l := range []*Linear{b.Attn.Wq, b.Attn.Wk, b.Attn.Wv, b.Attn.Wo, b.MLP.Gate, b.MLP.Up, b.MLP.Down} {
		l.ws = ws
	}
}

// Params returns the block parameters in traversal order.
func (b *Block) Params() []*Param {
	out := []*Param{b.Norm1.P}
	out = append(out, b.Attn.Params()...)
	out = append(out, b.Norm2.P)
	out = append(out, b.MLP.Params()...)
	return out
}

// Model is the full decoder-only language model with an untied output head.
type Model struct {
	Cfg    Config
	Embed  *Embedding
	Blocks []*Block
	NormF  *RMSNorm
	Head   *Linear

	params  *ParamSet
	groups  [][]*Param // BackwardRelease's groups, in release order
	largest int        // elements of the largest group: one ring slab
	ring    gradRing   // BackwardLend's gradient storage
	ws      workspace  // every layer's activations and backward temporaries
	batch   int
	seq     int
}

// NewModel constructs and initializes a model from cfg using rng.
func NewModel(cfg Config, rng *tensor.RNG) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Model{
		Cfg:   cfg,
		Embed: NewEmbedding("embed", cfg.Vocab, cfg.Dim, 0.02, rng),
		NormF: NewRMSNorm("norm_f", cfg.Dim),
		Head:  NewLinear("head", cfg.Dim, cfg.Vocab, 0.02, rng),
	}
	// The unembedding is a vocab-indexed table like the embedding: the
	// reference GaLore/APOLLO implementations keep both on dense AdamW and
	// project only the attention/MLP matrices. Channel-wise scaling across
	// vocabulary rows is statistically meaningless (rare tokens get
	// whitened noise), and marking the head accordingly is what lets
	// channel-wise APOLLO match the paper's quality.
	m.Head.P.Kind = KindEmbedding
	for i := 0; i < cfg.Layers; i++ {
		prefix := fmt.Sprintf("blocks.%d", i)
		m.Blocks = append(m.Blocks, &Block{
			Norm1: NewRMSNorm(prefix+".norm1", cfg.Dim),
			Attn:  NewAttention(prefix+".attn", cfg.Dim, cfg.Heads, cfg.MaxSeq, rng),
			Norm2: NewRMSNorm(prefix+".norm2", cfg.Dim),
			MLP:   NewSwiGLU(prefix+".mlp", cfg.Dim, cfg.Hidden, rng),
		})
	}
	ps := &ParamSet{}
	ps.Add(m.Embed.P)
	for _, b := range m.Blocks {
		ps.Add(b.Params()...)
	}
	ps.Add(m.NormF.P, m.Head.P)
	m.params = ps
	m.groups = [][]*Param{{m.NormF.P, m.Head.P}}
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		m.groups = append(m.groups, m.Blocks[i].Params())
	}
	m.groups = append(m.groups, []*Param{m.Embed.P})
	for _, g := range m.groups {
		n := 0
		for _, p := range g {
			n += p.NumEl()
		}
		m.largest = max(m.largest, n)
	}
	m.Embed.ws, m.NormF.ws, m.Head.ws = &m.ws, &m.ws, &m.ws
	for _, b := range m.Blocks {
		b.bind(&m.ws)
	}
	return m
}

// Params returns the model's parameter set.
func (m *Model) Params() *ParamSet { return m.params }

// Forward maps token ids (length batch·seq, row-major by sequence) to logits
// of shape (batch·seq)×vocab. The logits live in the model's arena: they are
// valid until the next Forward on this model, and a model runs one pass at a
// time.
func (m *Model) Forward(tokens []int, batch, seq int) *tensor.Matrix {
	if len(tokens) != batch*seq {
		panic(fmt.Sprintf("nn: %d tokens for batch %d × seq %d", len(tokens), batch, seq))
	}
	if seq > m.Cfg.MaxSeq {
		panic(fmt.Sprintf("nn: seq %d exceeds MaxSeq %d", seq, m.Cfg.MaxSeq))
	}
	m.batch, m.seq = batch, seq
	m.ws.reset()
	x := m.Embed.Forward(tokens)
	for _, b := range m.Blocks {
		x = b.Forward(x, batch, seq)
	}
	return m.Head.Forward(m.NormF.Forward(x))
}

// Backward propagates dlogits through the whole network, accumulating every
// parameter gradient.
func (m *Model) Backward(dlogits *tensor.Matrix) { m.BackwardRelease(dlogits, nil) }

// BackwardRelease is Backward that hands release each group of parameters
// the moment the pass has finished with it: [norm_f, head] once the head's
// backward is done, each block's Params as its Block.Backward completes (last
// block first), [embed] last. Every parameter is released exactly once, and
// the rest of the pass neither reads nor writes a released parameter's weight
// or gradient, so release may update it while the pass goes on. The group
// slices belong to the model; release must not modify them. A nil release
// releases nothing. The gradients accumulate into resident storage; under
// BackwardLend they are lent one group at a time instead.
func (m *Model) BackwardRelease(dlogits *tensor.Matrix, release func([]*Param)) {
	m.backward(dlogits, release, false)
}

// backward is the one backward pass, group by group in release order; lend
// borrows each group's gradient storage from the ring just before the pass
// first writes it.
func (m *Model) backward(dlogits *tensor.Matrix, release func([]*Param), lend bool) {
	outer := m.ws.mark()
	// Two buffers carry the hidden-state gradient down the stack in turn.
	dx, dy := m.ws.matrix(dlogits.Rows, m.Cfg.Dim), m.ws.matrix(dlogits.Rows, m.Cfg.Dim)
	for k, g := range m.groups {
		if lend {
			m.borrow(g)
		}
		switch {
		case k == 0:
			inner := m.ws.mark()
			m.NormF.backwardInto(dx, m.Head.Backward(dlogits))
			m.ws.release(inner)
		case k <= len(m.Blocks):
			dx, dy = dy, dx
			m.Blocks[len(m.Blocks)-k].Backward(dx, dy)
		default:
			m.Embed.Backward(dx)
		}
		if release != nil {
			release(g)
		}
	}
	m.ws.release(outer)
}

// CountTargets returns the number of entries of targets not equal to
// ignoreIndex — the normalization constant of CrossEntropy. The data-parallel
// trainer computes it once over the global batch so every shard normalizes
// identically.
func CountTargets(targets []int, ignoreIndex int) int {
	counted := 0
	for _, tgt := range targets {
		if tgt != ignoreIndex {
			counted++
		}
	}
	return counted
}

// CrossEntropy computes the mean negative log-likelihood of targets under
// logits and the gradient dlogits = (softmax − onehot)/N. Targets equal to
// ignoreIndex contribute neither loss nor gradient.
func CrossEntropy(logits *tensor.Matrix, targets []int, ignoreIndex int) (float64, *tensor.Matrix) {
	counted := CountTargets(targets, ignoreIndex)
	if counted == 0 {
		return 0, tensor.NewMatrix(logits.Rows, logits.Cols)
	}
	sum, dlogits := CrossEntropyShard(logits, targets, ignoreIndex, counted)
	return sum / float64(counted), dlogits
}

// CrossEntropyShard is the sharded form of CrossEntropy: it returns the
// UNnormalized loss sum over the rows it sees while scaling dlogits by
// 1/normCount, where normCount is the non-ignored target count of the whole
// (possibly multi-shard) batch. Because a row's loss and gradient depend
// only on that row and normCount, a shard's dlogits rows are bit-identical
// to the corresponding rows of a single full-batch call — the property the
// data-parallel trainer's determinism contract rests on.
func CrossEntropyShard(logits *tensor.Matrix, targets []int, ignoreIndex, normCount int) (float64, *tensor.Matrix) {
	if len(targets) != logits.Rows {
		panic(fmt.Sprintf("nn: %d targets for %d logit rows", len(targets), logits.Rows))
	}
	if normCount <= 0 {
		panic(fmt.Sprintf("nn: CrossEntropyShard normCount %d", normCount))
	}
	dlogits := tensor.NewMatrix(logits.Rows, logits.Cols)
	counted := normCount
	lossCh := make([]float64, logits.Rows)
	invN := float32(1.0 / float64(counted))
	tensor.Parallel(logits.Rows, 8, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			tgt := targets[i]
			if tgt == ignoreIndex {
				continue
			}
			row := logits.Row(i)
			lse := tensor.LogSumExp(row)
			lossCh[i] = lse - float64(row[tgt])
			drow := dlogits.Row(i)
			for j, v := range row {
				p := expf(float64(v) - lse)
				drow[j] = float32(p) * invN
			}
			drow[tgt] -= invN
		}
	})
	var total float64
	for _, l := range lossCh {
		total += l
	}
	return total, dlogits
}

// Loss is a convenience wrapper: forward + cross-entropy + backward.
// It returns the mean loss over non-ignored targets.
func (m *Model) Loss(tokens []int, targets []int, batch, seq int) float64 {
	logits := m.Forward(tokens, batch, seq)
	loss, dlogits := CrossEntropy(logits, targets, -1)
	m.Backward(dlogits)
	return loss
}

// EvalLoss computes the loss without touching gradients (no backward pass).
func (m *Model) EvalLoss(tokens []int, targets []int, batch, seq int) float64 {
	logits := m.Forward(tokens, batch, seq)
	loss, _ := crossEntropyLossOnly(logits, targets, -1)
	return loss
}

func crossEntropyLossOnly(logits *tensor.Matrix, targets []int, ignoreIndex int) (float64, int) {
	// Row losses fan out; the sum stays serial and in row order.
	rowLoss := make([]float64, logits.Rows)
	tensor.Parallel(logits.Rows, 8, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			if tgt := targets[i]; tgt != ignoreIndex {
				row := logits.Row(i)
				rowLoss[i] = tensor.LogSumExp(row) - float64(row[tgt])
			}
		}
	})
	var total float64
	counted := 0
	for i, tgt := range targets[:logits.Rows] {
		if tgt != ignoreIndex {
			total += rowLoss[i]
			counted++
		}
	}
	if counted == 0 {
		return 0, 0
	}
	return total / float64(counted), counted
}

func expf(x float64) float64 {
	// Clamp to avoid Inf from pathological logits in early training.
	if x > 60 {
		x = 60
	}
	if x < -60 {
		return 0
	}
	return math.Exp(x)
}
