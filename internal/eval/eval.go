// Package eval implements the evaluation harnesses of the paper's Section 5:
// validation perplexity, likelihood-based zero-shot multiple choice (Table 4),
// fine-tuning accuracy aggregation (Tables 5/6) and the directional-sharpness
// probe of Section 5.5 (Table 10).
package eval

import (
	"fmt"
	"math"

	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// Query is one candidate continuation under the length-normalized scoring
// rule of lm-eval-harness, which the paper's zero-shot suites use: the mean
// log-probability of the option tokens conditioned on the context. A
// forward over Seq[:len(Seq)-1] predicts Seq[i+1] at position i, and the
// option tokens are scored from position Start on.
//
// With an empty context the first option token has no conditioning position
// (the model has no BOS convention), so the mean runs over the remaining
// option tokens; a query with nothing scoreable at all has Start -1 and
// scores 0.
type Query struct {
	Seq   []int // context + option
	Start int   // first scored position; -1 when nothing is scoreable
}

// NewQuery builds the query scoring option after context.
func NewQuery(context, option []int) Query {
	seq := make([]int, 0, len(context)+len(option))
	seq = append(seq, context...)
	seq = append(seq, option...)
	if len(option) == 0 || len(seq) < 2 {
		return Query{Seq: seq, Start: -1}
	}
	return Query{Seq: seq, Start: max(len(context)-1, 0)}
}

// Score reads the query's mean option log-probability from logits of a
// forward over Seq[:len(Seq)-1] that starts at position from ≤ Start
// (nn.Model.ForwardFrom): row row0 of logits holds position from, row
// row0+pos−from position pos, and the query's rows may sit among other rows
// of a batched forward. A query with nothing scoreable returns 0 without
// reading logits.
func (q Query) Score(logits *tensor.Matrix, row0, from int) float64 {
	if q.Start < 0 {
		return 0
	}
	if from > q.Start {
		panic(fmt.Sprintf("eval: logits from position %d miss the query's first scored position %d", from, q.Start))
	}
	t := len(q.Seq) - 1
	var total float64
	for pos := q.Start; pos < t; pos++ {
		row := logits.Row(row0 + pos - from)
		total += float64(row[q.Seq[pos+1]]) - tensor.LogSumExp(row)
	}
	return total / float64(t-q.Start)
}

// OptionLogProb scores one candidate continuation with one forward of model
// from the first scored position (Query.Score).
func OptionLogProb(model *nn.Model, context, option []int) float64 {
	q := NewQuery(context, option)
	if q.Start < 0 {
		return q.Score(nil, 0, 0)
	}
	t := len(q.Seq) - 1
	return q.Score(model.ForwardFrom(q.Seq[:t], 1, t, q.Start), 0, q.Start)
}

// Accuracy is the likelihood-comparison protocol: an item is correct when
// its answer holds the strictly highest score(i, o) of item i's options (the
// first option wins a tie). No items score 0.
func Accuracy(items []data.MCItem, score func(i, o int) float64) float64 {
	if len(items) == 0 {
		return 0
	}
	correct := 0
	for i, item := range items {
		best, bi := math.Inf(-1), 0
		for o := range item.Options {
			if s := score(i, o); s > best {
				best, bi = s, o
			}
		}
		if bi == item.Answer {
			correct++
		}
	}
	return float64(correct) / float64(len(items))
}

// ZeroShotAccuracy scores a multiple-choice suite on model: Accuracy over
// OptionLogProb.
func ZeroShotAccuracy(model *nn.Model, items []data.MCItem) float64 {
	return Accuracy(items, func(i, o int) float64 {
		return OptionLogProb(model, items[i].Context, items[i].Options[o])
	})
}

// SuiteResult is one task's score.
type SuiteResult struct {
	Task     string  `json:"task"`
	Accuracy float64 `json:"accuracy"`
}

// ZeroShotSuite evaluates the Table 4 suite for seed in task order: each
// task's items, generated from src, are scored by accuracy. itemsPerTask > 0
// replaces every task's item count. The first error stops the suite.
func ZeroShotSuite(src *data.Source, seed uint64, itemsPerTask int, accuracy func([]data.MCItem) (float64, error)) ([]SuiteResult, error) {
	var out []SuiteResult
	for _, cfg := range data.ZeroShotSuite(seed) {
		if itemsPerTask > 0 {
			cfg.Items = itemsPerTask
		}
		acc, err := accuracy(data.GenerateMCTask(src, cfg))
		if err != nil {
			return nil, err
		}
		out = append(out, SuiteResult{Task: cfg.Name, Accuracy: acc})
	}
	return out, nil
}

// RunZeroShotSuite evaluates the full Table 4 suite on a model.
func RunZeroShotSuite(model *nn.Model, src *data.Source, seed uint64) []SuiteResult {
	out, _ := ZeroShotSuite(src, seed, 0, func(items []data.MCItem) (float64, error) { // never fails
		return ZeroShotAccuracy(model, items), nil
	})
	return out
}

// Average returns the mean accuracy across suite results.
func Average(rs []SuiteResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rs {
		sum += r.Accuracy
	}
	return sum / float64(len(rs))
}

// DirectionalSharpness estimates vᵀ∇²L(θ)v along a normalized direction v
// via the central second difference (L(θ+εv) − 2L(θ) + L(θ−εv))/ε². This is
// the quantity of Pan & Li (2023) that Section 5.5 uses to explain why
// APOLLO's SGD-like updates still optimize transformers well (Table 10).
//
// dir must be parallel to the parameter list; it is normalized internally.
func DirectionalSharpness(model *nn.Model, dir []*tensor.Matrix, tokens, targets []int, b, t int, eps float64) float64 {
	params := model.Params().List()
	if len(dir) != len(params) {
		panic("eval: direction/parameter length mismatch")
	}
	var sq float64
	for _, d := range dir {
		sq += d.SqNorm()
	}
	norm := math.Sqrt(sq)
	if norm == 0 { //apollo:exactfloat guard against division by an exact-zero norm
		return 0
	}
	scale := float32(eps / norm)

	move := func(sign float32) {
		for i, p := range params {
			tensor.AxpyInPlace(p.W, sign*scale, dir[i])
		}
	}

	base := model.EvalLoss(tokens, targets, b, t)
	move(+1)
	plus := model.EvalLoss(tokens, targets, b, t)
	move(-2)
	minus := model.EvalLoss(tokens, targets, b, t)
	move(+1) // restore

	return (plus - 2*base + minus) / (eps * eps)
}

// UpdateDirection extracts an optimizer's current update direction by
// cloning the parameters, applying one step at the given gradients, and
// differencing. The returned matrices are parallel to the model parameters.
func UpdateDirection(params []*nn.Param, step func(ps []*nn.Param)) []*tensor.Matrix {
	clones := make([]*nn.Param, len(params))
	for i, p := range params {
		c := nn.NewParam(p.Name, p.Kind, p.W.Clone())
		c.Grad.CopyFrom(p.Grad)
		clones[i] = c
	}
	step(clones)
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		out[i] = tensor.Sub(params[i].W, clones[i].W) // −Δ = descent direction
		_ = p
	}
	return out
}
