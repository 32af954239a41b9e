// Package spec holds what the benchmark's binaries share: the workload
// table, the JSON schema one measured episode travels in, and the quantile
// rules. It imports only the facade package, so the end-to-end binary keeps
// building when an internal signature changes.
package spec

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"apollo"
)

// Workload names, exactly as BENCHMARK.json lists them.
const (
	Fused  = "pretrain_fused"
	DPZero = "pretrain_dpzero"
	Micro  = "pretrain_microbatch"
	Serve  = "serve_mixed"
)

// Names lists the workloads in report order.
var Names = []string{Fused, DPZero, Micro, Serve}

// Vocab is the vocabulary of every proxy model and of the synthetic corpus.
const Vocab = 256

// Train describes one training workload. An episode is one process that
// builds the model, runs Warmup untimed steps and then Steps timed ones;
// the step count is fixed so that every episode of a seed must end on the
// same final loss.
type Train struct {
	Name       string
	Model      apollo.ModelConfig
	LR         float64
	Rank       int
	Batch, Seq int
	Warmup     int
	Steps      int
	Replicas   int // 0 = fused loop; N = DPPretrain with ZeRO over N replicas
	RefPasses  int // host-reference passes beside every step: about a sixth of the step
}

var (
	proxy60M = apollo.ModelConfig{Vocab: Vocab, Dim: 32, Hidden: 88, Heads: 4, Layers: 2, MaxSeq: 128}
	proxy1B  = apollo.ModelConfig{Vocab: Vocab, Dim: 96, Hidden: 256, Heads: 6, Layers: 5, MaxSeq: 128}
	proxy7B  = apollo.ModelConfig{Vocab: Vocab, Dim: 128, Hidden: 344, Heads: 8, Layers: 6, MaxSeq: 128}
)

// TrainByName returns the training workload of that name. tiny shrinks it to
// the 60M proxy and three steps for the smoke test.
func TrainByName(name string, tiny bool) (Train, bool) {
	var w Train
	switch name {
	case Fused:
		w = Train{Model: proxy1B, LR: 2e-3, Rank: 24, Batch: 8, Seq: 64, Warmup: 3, Steps: 10, RefPasses: 75}
	case DPZero:
		w = Train{Model: proxy1B, LR: 2e-3, Rank: 24, Batch: 8, Seq: 64, Warmup: 3, Steps: 14, Replicas: 2, RefPasses: 75}
	case Micro:
		w = Train{Model: proxy7B, LR: 1.5e-3, Rank: 32, Batch: 1, Seq: 16, Warmup: 3, Steps: 60, RefPasses: 16}
	default:
		return Train{}, false
	}
	w.Name = name
	if tiny {
		w.Model, w.Rank, w.Warmup, w.Steps, w.RefPasses = proxy60M, 8, 1, 2, 2
	}
	return w, true
}

// NewOptimizer builds the workload's APOLLO instance; under ZeRO each shard
// gets one.
func (w Train) NewOptimizer(seed uint64) apollo.Optimizer {
	build := func() apollo.Optimizer {
		return apollo.New(apollo.Hyper{LR: w.LR}, apollo.Config{Rank: w.Rank, UpdateGap: 50, Seed: seed})
	}
	if w.Replicas > 0 {
		return apollo.NewZeRO(build, w.Replicas)
	}
	return build()
}

// Build makes the model, optimizer and corpus of one episode from the seed.
func (w Train) Build(seed uint64) (*apollo.Model, apollo.Optimizer, *apollo.Corpus, error) {
	corpus, err := apollo.NewCorpus(Vocab, seed+17, seed+17+0x5EED)
	if err != nil {
		return nil, nil, nil, err
	}
	return apollo.NewModel(w.Model, seed), w.NewOptimizer(seed), corpus, nil
}

// Config is the pre-training configuration of one episode. Steps counts one
// more than Warmup+Steps because the batch hook stamps the start of a step:
// the last stamp closes the last timed interval.
func (w Train) Config() apollo.PretrainConfig {
	return apollo.PretrainConfig{Batch: w.Batch, Seq: w.Seq, Steps: w.Warmup + w.Steps + 1, EvalBatches: 1}
}

// ServeMix describes the serve_mixed traffic.
type ServeMix struct {
	Size         string    // proxy size of the served checkpoint
	TrainSteps   int       // steps apollo-pretrain runs to produce it
	Rates        []float64 // requests/s of the three open-loop phases
	E2EPhase     int       // index of the phase whose logprob latency is the end-to-end latency
	LimitMS      float64   // a request meets the limit when done within this of its due time
	Context      int       // context tokens of a logprob query
	Option       int       // option tokens of a logprob query
	ItemContext  int       // context tokens of a zero-shot item
	ItemOption   int       // tokens of each of its options
	HotPool      int       // distinct repeated logprob queries (cache hits)
	HotShare     float64   // share of requests drawn from the hot pool
	ZeroShare    float64   // share of requests that are zero-shot batches
	Items, Opts  int       // a zero-shot request scores Items×Opts units
	Warmup       int       // queries sent before a server counts as set up
	Setups       int       // servers started per run; the last one takes the load
	PhaseSeconds float64   // length of each phase in nominal seconds, from -seconds
	RefPasses    int       // host-reference passes of the sample on each side of a set-up
}

// Serving returns the serve_mixed traffic for a measuring budget of seconds;
// the three phases share three quarters of it and the set-ups the rest.
func Serving(seconds float64, tiny bool) ServeMix {
	m := ServeMix{
		Size: "350M", TrainSteps: 4,
		Rates: []float64{12, 24, 36}, E2EPhase: 1, LimitMS: 120,
		Context: 48, Option: 16, ItemContext: 16, ItemOption: 8,
		HotPool: 8, HotShare: 0.2, ZeroShare: 0.1, Items: 4, Opts: 4,
		Warmup: 20, Setups: 5,
		PhaseSeconds: seconds / 4, RefPasses: 200,
	}
	if tiny {
		m.Size, m.TrainSteps, m.Setups, m.PhaseSeconds, m.RefPasses = "60M", 3, 1, 1.0/3, 2
	}
	return m
}

// Episode is what one benchmark subprocess measured, as the JSON object it
// prints on its last line of standard output.
// Every time in it is nominal (see HostRef).
type Episode struct {
	SetupS     []float64 `json:"setup_s"`     // one per set-up performed
	LatencyMS  []float64 `json:"latency_ms"`  // every sample: step times, or request due→done times
	Tokens     float64   `json:"tokens"`      // tokens trained, or served within the limit
	WindowS    float64   `json:"window_s"`    // timed seconds those tokens took
	Slowdown   []float64 `json:"slowdown"`    // host-reference readings: one per tick, or per set-up and request
	StateBytes int64     `json:"state_bytes"` // optimizer state, or the server's resident snapshot
	PeakRSSKB  int64     `json:"peak_rss_kb"` // ru_maxrss of the measured process
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	FinalLoss  string    `json:"final_loss,omitempty"` // ExactFloat of the final validation loss
	Problems   []string  `json:"problems,omitempty"`   // output checks that did not hold
	Notes      []string  `json:"notes,omitempty"`
	// Layer holds per-layer metrics of a traced run by BENCHMARK.json name.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// Tag names phase i in per-rate metric names: "r24" for 24 requests/s.
func (m ServeMix) Tag(i int) string { return fmt.Sprintf("r%.0f", m.Rates[i]) }

// ExactFloat renders v as its shortest round-trip decimal, the form the
// CLIs print losses in.
func ExactFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Quantile returns the q-quantile of values by linear interpolation between
// order statistics; NaN for an empty sample.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Median is Quantile(values, 0.5).
func Median(values []float64) float64 { return Quantile(values, 0.5) }

// Quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), so
// spreads printed here equal the ones the acceptance rule computes. It
// needs at least two values.
func Quartiles(values []float64) (q1, med, q3 float64, err error) {
	n := len(values)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least two values, got %d", n)
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3), nil
}

// WriteJSONL writes rows to path, one JSON object per line, creating the
// directory. Traces are kept in memory during a run and written with this
// once it is over.
func WriteJSONL[T any](path string, rows []T) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, row := range rows {
		if err = enc.Encode(row); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	return errors.Join(err, f.Close())
}
