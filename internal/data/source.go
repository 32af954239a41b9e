// Package data provides the synthetic corpus and task generators that stand
// in for C4 and the zero-shot/fine-tuning suites in the paper (the repo has
// no network access and no tokenized C4). The generator is a hierarchical
// Markov process: a latent topic chain modulates per-token transition
// tables with Zipf-weighted successors, and a small copy mechanism injects
// long-range dependencies so that longer context windows genuinely lower the
// achievable loss (needed for the Fig. 7 long-context experiment).
//
// What matters for reproducing the paper is not the text itself but that the
// stream (a) is learnable, (b) has capacity-dependent achievable loss, and
// (c) produces dense, noisy transformer gradients — which is what drives the
// optimizer comparisons.
package data

import (
	"fmt"

	"apollo/internal/tensor"
)

// SourceConfig parameterizes the synthetic language.
type SourceConfig struct {
	Vocab       int     // token alphabet size
	Topics      int     // latent topic states
	Branch      int     // successor fan-out per (topic, token)
	TopicSwitch float64 // probability of resampling the topic per step
	CopyProb    float64 // probability of emitting a long-range copy
	CopyLagMin  int     // minimum copy distance
	CopyLagMax  int     // maximum copy distance
	Seed        uint64  // structure seed (fixes the language itself)
}

// DefaultSourceConfig returns the configuration used by the experiment
// harness: a 256-token alphabet, 8 topics, mild branching.
func DefaultSourceConfig() SourceConfig {
	return SourceConfig{
		Vocab:       256,
		Topics:      8,
		Branch:      6,
		TopicSwitch: 0.02,
		CopyProb:    0.08,
		CopyLagMin:  16,
		CopyLagMax:  192,
		Seed:        0xC4C4C4,
	}
}

// Validate checks configuration consistency.
func (c SourceConfig) Validate() error {
	if c.Vocab < 2 || c.Topics < 1 || c.Branch < 1 {
		return fmt.Errorf("data: invalid source config %+v", c)
	}
	if c.Branch > c.Vocab {
		return fmt.Errorf("data: branch %d exceeds vocab %d", c.Branch, c.Vocab)
	}
	if c.CopyProb < 0 || c.CopyProb >= 1 || c.TopicSwitch < 0 || c.TopicSwitch > 1 {
		return fmt.Errorf("data: invalid probabilities in %+v", c)
	}
	if c.CopyLagMin < 1 || c.CopyLagMax < c.CopyLagMin {
		return fmt.Errorf("data: invalid copy lags in %+v", c)
	}
	return nil
}

// Source is an instantiated synthetic language: fixed transition structure
// shared by every stream drawn from it.
type Source struct {
	cfg SourceConfig
	// succ[topic][token] lists Branch successor tokens; probs are the
	// shared Zipf-like weights over branch slots.
	succ  [][][]int32
	cumul []float64 // cumulative branch weights, length Branch
}

// NewSource builds the language structure deterministically from cfg.Seed.
func NewSource(cfg SourceConfig) (*Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	s := &Source{cfg: cfg}
	s.succ = make([][][]int32, cfg.Topics)
	for t := 0; t < cfg.Topics; t++ {
		s.succ[t] = make([][]int32, cfg.Vocab)
		for v := 0; v < cfg.Vocab; v++ {
			list := make([]int32, cfg.Branch)
			for b := range list {
				list[b] = int32(rng.Intn(cfg.Vocab))
			}
			s.succ[t][v] = list
		}
	}
	// Zipf-like branch weights: w_b ∝ 1/(b+1), shared across all contexts.
	weights := make([]float64, cfg.Branch)
	var total float64
	for b := range weights {
		weights[b] = 1 / float64(b+1)
		total += weights[b]
	}
	s.cumul = make([]float64, cfg.Branch)
	acc := 0.0
	for b := range weights {
		acc += weights[b] / total
		s.cumul[b] = acc
	}
	return s, nil
}

// Config returns the source configuration.
func (s *Source) Config() SourceConfig { return s.cfg }

// Stream is one infinite token sequence drawn from a Source.
type Stream struct {
	src     *Source
	rng     *tensor.RNG
	topic   int
	prev    int
	history []int32
}

// NewStream starts a stream with its own RNG seed (content seed; the
// language structure stays fixed).
func (s *Source) NewStream(seed uint64) *Stream {
	rng := tensor.NewRNG(seed)
	return &Stream{
		src:   s,
		rng:   rng,
		topic: rng.Intn(s.cfg.Topics),
		prev:  rng.Intn(s.cfg.Vocab),
	}
}

// Next emits the next token.
func (st *Stream) Next() int {
	cfg := st.src.cfg
	if st.rng.Float64() < cfg.TopicSwitch {
		st.topic = st.rng.Intn(cfg.Topics)
	}
	var tok int
	if len(st.history) > cfg.CopyLagMin && st.rng.Float64() < cfg.CopyProb {
		span := cfg.CopyLagMax - cfg.CopyLagMin + 1
		lag := cfg.CopyLagMin + st.rng.Intn(span)
		if lag >= len(st.history) {
			lag = len(st.history)
		}
		tok = int(st.history[len(st.history)-lag])
	} else {
		u := st.rng.Float64()
		b := 0
		for b < cfg.Branch-1 && u > st.src.cumul[b] {
			b++
		}
		tok = int(st.src.succ[st.topic][st.prev][b])
	}
	st.prev = tok
	st.history = append(st.history, int32(tok))
	if len(st.history) > cfg.CopyLagMax*2 {
		// Keep the window bounded; copies never reach further back.
		st.history = st.history[len(st.history)-cfg.CopyLagMax:]
	}
	return tok
}

// Fill writes n consecutive tokens into dst.
func (st *Stream) Fill(dst []int) {
	for i := range dst {
		dst[i] = st.Next()
	}
}
