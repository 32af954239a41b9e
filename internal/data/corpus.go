package data

import (
	"apollo/internal/tensor"
)

// Batch is one training batch: Tokens[i] is the input at flat position i and
// Targets[i] the next-token label (standard causal LM shift). Both have
// length B·T, row-major by sequence.
type Batch struct {
	Tokens  []int
	Targets []int
	B, T    int
}

// Corpus yields batches of fresh sequences from a Source. Training batches
// advance an internal RNG; validation batches are fixed by an independent
// seed so every optimizer sees the identical evaluation set (the paper's
// validation-perplexity protocol).
type Corpus struct {
	src     *Source
	trainRG *tensor.RNG
	valSeed uint64

	// HookTrainBatch, when non-nil, post-processes every training batch
	// before NextTrainBatch returns it. Tests use it to produce batches the
	// synthetic source never emits on its own — e.g. fully ignore-masked
	// targets, which exercise the trainers' counted==0 path. The hook runs
	// after the stream RNG has advanced, so it never perturbs the data
	// cursor that checkpoints persist.
	HookTrainBatch func(*Batch)
}

// NewCorpus builds a corpus over src. trainSeed drives the training stream;
// validation content is derived from valSeed.
func NewCorpus(src *Source, trainSeed, valSeed uint64) *Corpus {
	return &Corpus{src: src, trainRG: tensor.NewRNG(trainSeed), valSeed: valSeed}
}

// Source returns the underlying generator.
func (c *Corpus) Source() *Source { return c.src }

// NextTrainBatch samples B sequences of length T (+1 shift token each).
func (c *Corpus) NextTrainBatch(b, t int) Batch {
	batch := c.batchFrom(c.trainRG.Uint64(), b, t)
	if c.HookTrainBatch != nil {
		c.HookTrainBatch(&batch)
	}
	return batch
}

// TrainCursor returns the training stream's RNG phase — the only mutable
// state a corpus carries. Checkpoints persist it so a resumed run draws the
// exact batch sequence an uninterrupted run would have seen.
func (c *Corpus) TrainCursor() uint64 { return c.trainRG.State() }

// SeekTrain restores a cursor captured by TrainCursor.
func (c *Corpus) SeekTrain(cursor uint64) { c.trainRG.SetState(cursor) }

// ValBatch returns the idx-th deterministic validation batch. Calling it
// twice with the same arguments returns identical data.
func (c *Corpus) ValBatch(idx, b, t int) Batch {
	return c.batchFrom(c.valSeed+uint64(idx)*0x9E3779B9, b, t)
}

func (c *Corpus) batchFrom(seed uint64, b, t int) Batch {
	batch := Batch{
		Tokens:  make([]int, b*t),
		Targets: make([]int, b*t),
		B:       b,
		T:       t,
	}
	rng := tensor.NewRNG(seed)
	buf := make([]int, t+1)
	for row := 0; row < b; row++ {
		st := c.src.NewStream(rng.Uint64())
		// Burn in past the copy horizon so sequences are stationary.
		for i := 0; i < c.src.cfg.CopyLagMin; i++ {
			st.Next()
		}
		st.Fill(buf)
		copy(batch.Tokens[row*t:(row+1)*t], buf[:t])
		copy(batch.Targets[row*t:(row+1)*t], buf[1:])
	}
	return batch
}
