package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"apollo/internal/data"
	"apollo/internal/nn"
)

// Scale selects how much compute an experiment run spends.
type Scale int

const (
	// Quick shrinks step counts so the whole registry completes in minutes
	// (the default for `apollo-bench` and the Go benchmarks).
	Quick Scale = iota
	// Full uses the proxy defaults (Proxy.Steps as declared in proxies.go).
	Full
)

// RunContext carries execution options into a runner.
type RunContext struct {
	Scale Scale
	Out   io.Writer
	Seed  uint64
	// RunRoot, when set, makes every pretrain-family training run leave a
	// ledger entry under this directory (see internal/obs/runlog). Empty
	// disables the ledger — the right setting for unit tests and nested
	// sweeps that would otherwise spam entries.
	RunRoot string
}

// Printf writes to the context's output.
func (c *RunContext) Printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// steps scales a Full step count down for Quick runs. The floor keeps quick
// runs long enough for the optimizer orderings to emerge (shorter traces are
// dominated by initialization noise).
func (c *RunContext) steps(full int) int {
	if c.Scale == Quick {
		s := full / 2
		if s < 60 {
			s = 60
		}
		return s
	}
	return full
}

// fresh returns what every training run of an experiment starts from: a new
// corpus and a newly initialised proxy model, each a fixed offset from the
// run seed, so runs differ only in what the experiment varies.
func (c *RunContext) fresh(proxy Proxy) (*data.Corpus, *nn.Model, error) {
	corpus, err := NewCorpus(c.Seed + 17)
	if err != nil {
		return nil, nil, err
	}
	return corpus, proxy.NewProxyModel(c.Seed + 33), nil
}

// contract collects the rows of a runner whose exact contract did not hold,
// so the runner can finish printing its table and still fail: a row that
// reads DRIFT must make `apollo-bench` exit 1, not scroll past.
type contract struct {
	id     string
	broken []string
}

// parity returns the table cell for a bit-parity row — two runs that must
// end on the same float — and records the row when they did not.
func (c *contract) parity(row string, got, want float64) string {
	if got == want { //apollo:exactfloat bit-parity contract: the two runs must agree float-for-float
		return "exact"
	}
	c.fail(row)
	return "DRIFT"
}

func (c *contract) fail(row string) { c.broken = append(c.broken, row) }

// err names every recorded row, or is nil when all of them held.
func (c *contract) err() error {
	if len(c.broken) == 0 {
		return nil
	}
	return fmt.Errorf("bench %s: contract broken: %s", c.id, strings.Join(c.broken, ", "))
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string // table/figure the runner regenerates
	Run      func(ctx *RunContext) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// Lookup returns an experiment by id.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("bench: unknown experiment %q (try `list`)", id)
	}
	return e, nil
}

// All returns every experiment sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
