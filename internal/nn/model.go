package nn

import (
	"fmt"
	"math"

	rt "apollo/internal/runtime"
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

// Forward applies x + Attn(Norm1(x)) then x + MLP(Norm2(x)) and returns the
// rows of positions from … seq−1 of each sequence, every row at from 0. The
// sums land in the sub-layer outputs, which nothing else keeps. Norm1 and
// attention's keys and values cover every row; the rest of the block covers
// the returned rows alone, and at from > 0 x is shrunk to them (keepTail)
// once Norm1 has read it. The norm outputs and the MLP's gated product are
// arena transients, handed back before Forward returns; Backward rebuilds
// them.
func (b *Block) Forward(x *tensor.Matrix, batch, seq, from int) *tensor.Matrix {
	mark := b.ws.mark()
	h := b.Attn.Forward(b.Norm1.Forward(x), batch, seq, from)
	addInto(h, keepTail(x, seq, from))
	y := b.MLP.Forward(b.Norm2.Forward(h))
	addInto(y, h)
	b.ws.release(mark)
	return y
}

// keepTail moves the rows of positions from … seq−1 of each of x's
// sequences to the front of x, in order, and shrinks x to them; at from 0 it
// returns x as it is. The rows move within x's own storage, which keeps its
// capacity, so the arena position x came from serves a full pass again.
func keepTail(x *tensor.Matrix, seq, from int) *tensor.Matrix {
	if from == 0 {
		return x
	}
	tail, cols := seq-from, x.Cols
	batch := x.Rows / seq
	// Sequence b's tail moves down to row b·tail ≤ b·seq+from, so no tail is
	// overwritten before it moves.
	for b := 0; b < batch; b++ {
		copy(x.Data[b*tail*cols:], x.Data[(b*seq+from)*cols:(b+1)*seq*cols])
	}
	x.Rows, x.Data = batch*tail, x.Data[:batch*tail*cols]
	return x
}

// Backward propagates dy through the block into dx; everything it takes from
// the arena is handed back, the MLP's share before attention takes its own.
// Each norm's output is rebuilt for the projections that read it, before
// the block's group is released. The MLP's two hidden-wide buffers are taken
// before Norm2's rebuild, so the transient position that held Forward's
// gated product serves a hidden-wide buffer here too: no forward transient
// is wider than what backward takes at its position.
func (b *Block) Backward(dx, dy *tensor.Matrix) {
	outer := b.ws.mark()
	// y = h + MLP(Norm2(h)); dh = dy + Norm2ᵀ(MLPᵀ(dy))
	dh := b.ws.matrix(dy.Rows, dy.Cols)
	inner := b.ws.mark()
	dgate, dup := b.MLP.gradBuffers()
	n2 := b.Norm2.output()
	b.MLP.Gate.x, b.MLP.Up.x = n2, n2
	b.Norm2.backwardInto(dh, b.MLP.backwardInto(dgate, dup, dy))
	b.ws.release(inner)
	addInto(dh, dy)
	// h = x + Attn(Norm1(x)); dx = dh + Norm1ᵀ(Attnᵀ(dh))
	n1 := b.Norm1.output()
	b.Attn.Wq.x, b.Attn.Wk.x, b.Attn.Wv.x = n1, n1, n1
	b.Norm1.backwardInto(dx, b.Attn.Backward(dh))
	addInto(dx, dh)
	b.ws.release(outer)
}

// addInto computes dst = a + dst elementwise (a is the left operand, as in
// tensor.Add(a, dst)).
func addInto(dst, a *tensor.Matrix) {
	rt.ForRange(len(dst.Data), 1<<14, func(i0, i1 int) {
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

	params *ParamSet
	groups [][]*Param // BackwardRelease's groups, in release order
	grads  gradArena  // every parameter's gradient storage
	ws     workspace  // every layer's activations and backward temporaries
	from   int        // the last forward's first logit position
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
		m.grads.largest = max(m.grads.largest, (&ParamSet{list: g}).NumParams())
	}
	m.Embed.ws, m.NormF.ws, m.Head.ws = &m.ws, &m.ws, &m.ws
	for _, b := range m.Blocks {
		b.bind(&m.ws)
	}
	return m
}

// Clone returns an independent model with a copy of m's weights and a fresh
// arena under ResidentGrads: a trainable copy whatever m's gradient policy.
func (m *Model) Clone() *Model {
	c := NewModel(m.Cfg, tensor.NewRNG(0))
	src := m.params.List()
	for i, p := range c.params.List() {
		p.W.CopyFrom(src[i].W)
	}
	return c
}

// Params returns the model's parameter set.
func (m *Model) Params() *ParamSet { return m.params }

// ActivationBytes returns the storage the model's activation arena holds:
// the buffers forwards keep for their backward, the transients, and scratch,
// each at the largest size it has served. Call it between passes.
func (m *Model) ActivationBytes() int64 { return m.ws.bytes() }

// Forward maps token ids (length batch·seq, row-major by sequence) to logits
// of shape (batch·seq)×vocab. The logits live in the model's arena: they are
// valid until the next Forward on this model, and a model runs one pass at a
// time. They are kept for the backward, and backward's temporaries come
// from the arena's other list, so a caller may write the gradient over them
// (CrossEntropyShard) and hand that to BackwardRelease.
func (m *Model) Forward(tokens []int, batch, seq int) *tensor.Matrix {
	return m.ForwardFrom(tokens, batch, seq, 0)
}

// ForwardFrom is Forward returning only the logits of positions from … seq−1
// of each sequence: batch·(seq−from) rows, sequence by sequence, bit for bit
// the rows Forward returns for those positions. Every block but the last,
// and the last block's Norm1, keys and values, run on every position, since
// the tail attends to all of them; the rest of the last block, NormF and
// Head run on the tail alone. A scoring forward that reads only the tail's
// logits passes the first position it reads. Only a forward from 0 can be
// backpropagated.
func (m *Model) ForwardFrom(tokens []int, batch, seq, from int) *tensor.Matrix {
	if len(tokens) != batch*seq {
		panic(fmt.Sprintf("nn: %d tokens for batch %d × seq %d", len(tokens), batch, seq))
	}
	if seq > m.Cfg.MaxSeq {
		panic(fmt.Sprintf("nn: seq %d exceeds MaxSeq %d", seq, m.Cfg.MaxSeq))
	}
	if from < 0 || from >= seq {
		panic(fmt.Sprintf("nn: forward from position %d of a %d-token sequence", from, seq))
	}
	m.from = from
	m.ws.reset()
	x := m.Embed.Forward(tokens)
	last := len(m.Blocks) - 1
	for _, b := range m.Blocks[:last] {
		x = b.Forward(x, batch, seq, 0)
	}
	x = m.Blocks[last].Forward(x, batch, seq, from)
	mark := m.ws.mark()
	logits := m.Head.Forward(m.NormF.Forward(x))
	m.ws.release(mark)
	return logits
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
// releases nothing. The pass borrows each group's gradient storage from the
// model's gradient arena just before it first writes the group. A nil
// dlogits is a zero gradient: the pass computes nothing, but still borrows
// and releases every group.
func (m *Model) BackwardRelease(dlogits *tensor.Matrix, release func([]*Param)) {
	if m.from > 0 {
		panic(fmt.Sprintf("nn: backward pass after a forward from position %d: only a forward from 0 can be backpropagated", m.from))
	}
	m.grads.open()
	outer := m.ws.mark()
	// Two buffers carry the hidden-state gradient down the stack in turn.
	var dx, dy *tensor.Matrix
	if dlogits != nil {
		dx, dy = m.ws.matrix(dlogits.Rows, m.Cfg.Dim), m.ws.matrix(dlogits.Rows, m.Cfg.Dim)
	}
	for k, g := range m.groups {
		m.grads.borrow(g)
		switch {
		case dlogits == nil:
		case k == 0:
			inner := m.ws.mark()
			m.Head.x = m.NormF.output()
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
// ignoreIndex contribute neither loss nor gradient. The caller's logits are
// left as they are and dlogits is a fresh matrix: it runs CrossEntropyShard
// on a clone.
func CrossEntropy(logits *tensor.Matrix, targets []int, ignoreIndex int) (float64, *tensor.Matrix) {
	counted := CountTargets(targets, ignoreIndex)
	if counted == 0 {
		return 0, tensor.NewMatrix(logits.Rows, logits.Cols)
	}
	sum, dlogits := CrossEntropyShard(logits.Clone(), targets, ignoreIndex, counted)
	return sum / float64(counted), dlogits
}

// CrossEntropyShard is the sharded form of CrossEntropy: it returns the
// UNnormalized loss sum over the rows it sees while scaling dlogits by
// 1/normCount, where normCount is the non-ignored target count of the whole
// (possibly multi-shard) batch. Because a row's loss and gradient depend
// only on that row and normCount, a shard's dlogits rows are bit-identical
// to the corresponding rows of a single full-batch call — the property the
// data-parallel trainer's determinism contract rests on.
//
// The gradient is written over the logits, and dlogits is logits itself:
// each row's log-sum-exp and loss are taken before the row is overwritten,
// and a row whose target is ignored is cleared to zeros. A training step
// hands it the logits Model.Forward returned, which are the last forward
// buffer in the model's arena, so the backward pass reads them as dlogits
// and allocates no rows×vocab matrix of its own.
func CrossEntropyShard(logits *tensor.Matrix, targets []int, ignoreIndex, normCount int) (float64, *tensor.Matrix) {
	if len(targets) != logits.Rows {
		panic(fmt.Sprintf("nn: %d targets for %d logit rows", len(targets), logits.Rows))
	}
	if normCount <= 0 {
		panic(fmt.Sprintf("nn: CrossEntropyShard normCount %d", normCount))
	}
	lossCh := make([]float64, logits.Rows)
	invN := float32(1.0 / float64(normCount))
	rt.ForRange(logits.Rows, 8, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			row := logits.Row(i)
			tgt := targets[i]
			if tgt == ignoreIndex {
				clear(row)
				continue
			}
			lse := tensor.LogSumExp(row)
			lossCh[i] = lse - float64(row[tgt])
			for j, v := range row {
				row[j] = float32(expf(float64(v)-lse)) * invN
			}
			row[tgt] -= invN
		}
	})
	var total float64
	for _, l := range lossCh {
		total += l
	}
	return total, logits
}

// Loss is a convenience wrapper: forward + cross-entropy + backward.
// It returns the mean loss over non-ignored targets. The gradient is written
// over the arena logits (CrossEntropyShard), so a call allocates no
// rows×vocab matrix; with no target counted the loss and gradient are zero.
func (m *Model) Loss(tokens []int, targets []int, batch, seq int) float64 {
	logits := m.Forward(tokens, batch, seq)
	counted := CountTargets(targets, -1)
	if counted == 0 {
		m.Backward(nil)
		return 0
	}
	sum, dlogits := CrossEntropyShard(logits, targets, -1, counted)
	m.Backward(dlogits)
	return sum / float64(counted)
}

// EvalLoss computes the loss without touching gradients (no backward pass).
func (m *Model) EvalLoss(tokens []int, targets []int, batch, seq int) float64 {
	total, counted := m.AddRowLosses(0, tokens, targets, batch, seq)
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// AddRowLosses forwards tokens without a backward pass and adds the loss of
// each row whose target is not ignored (-1) to total, in row order; targets
// holds one entry per token. It returns the new total and the number of rows
// it added. A batch evaluated sequence range by sequence range, each call
// given the total the previous one returned, sums the very float64 of one
// call over the whole batch, so EvalLoss may run at any forward shape.
func (m *Model) AddRowLosses(total float64, tokens, targets []int, batch, seq int) (float64, int) {
	logits := m.Forward(tokens, batch, seq)
	// Row losses fan out; the sum stays serial and in row order.
	rowLoss := make([]float64, logits.Rows)
	rt.ForRange(logits.Rows, 8, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			if tgt := targets[i]; tgt != -1 {
				row := logits.Row(i)
				rowLoss[i] = tensor.LogSumExp(row) - float64(row[tgt])
			}
		}
	})
	counted := 0
	for i, tgt := range targets {
		if tgt != -1 {
			total += rowLoss[i]
			counted++
		}
	}
	return total, counted
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
