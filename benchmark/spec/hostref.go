package spec

import (
	"runtime"
	"sync"
	"time"
)

// The host reference. The benchmark runs on a few cores of a shared host
// whose speed moves by half from one minute to the next: the same training
// step takes 350 ms in a quiet spell and 550 ms in a busy one, and no
// statistic of wall-clock samples taken inside a spell removes that. So
// every timed sample is taken beside a fixed piece of work of the
// benchmark's own, a small dense matrix product on every processor at once,
// and is reported in nominal time: the wall-clock time divided by how many
// times slower than nominal the reference ran right next to it. The
// reference is written here and never changes, so a faster program still
// reads as faster; only the host's share of the time cancels.
const (
	refRows, refInner, refCols = 64, 96, 256

	// RefNominalMS is what one pass of the reference takes on the quiet
	// reference host (2-core Xeon @ 2.10 GHz, go1.24). Nominal time is time
	// on that host.
	RefNominalMS = 0.76
)

// HostRef holds the reference's operands, one set per processor.
type HostRef struct {
	a, b, c [][]float32
}

// NewHostRef allocates the operands once, so that taking a sample allocates
// nothing in a process whose collector the benchmark is measuring.
func NewHostRef() *HostRef {
	h := &HostRef{}
	for p := 0; p < runtime.GOMAXPROCS(0); p++ {
		a, b := make([]float32, refRows*refInner), make([]float32, refInner*refCols)
		for i := range a {
			a[i] = float32(i%13) * 1e-3
		}
		for i := range b {
			b[i] = float32(i%7) * 1e-3
		}
		h.a, h.b, h.c = append(h.a, a), append(h.b, b), append(h.c, make([]float32, refRows*refCols))
	}
	return h
}

// Slowdown runs passes passes of the reference on every processor at once
// and returns how many times longer than nominal they took: 1 on the quiet
// reference host, about 1.5 when the host is busy.
func (h *HostRef) Slowdown(passes int) float64 {
	begin := time.Now()
	var wg sync.WaitGroup
	for p := range h.a {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b, c := h.a[p], h.b[p], h.c[p]
			for n := 0; n < passes; n++ {
				clear(c)
				for i := 0; i < refRows; i++ {
					row := c[i*refCols : (i+1)*refCols]
					for k := 0; k < refInner; k++ {
						x, col := a[i*refInner+k], b[k*refCols:(k+1)*refCols]
						for j := range row {
							row[j] += x * col[j]
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(begin).Seconds() * 1e3 / (float64(passes) * RefNominalMS)
}

// StepClock times training steps in nominal time. Its Tick is the body of
// the batch hook: the program calls it at every training-batch draw, so the
// wall-clock time between two ticks is one step, and the reference sample
// each tick takes lies between the two steps it is used for. The time a tick
// itself takes belongs to no step.
type StepClock struct {
	ref          *HostRef
	passes       int
	begins, ends []time.Time
	slow         []float64
}

func NewStepClock(passes int) *StepClock {
	return &StepClock{ref: NewHostRef(), passes: passes}
}

func (c *StepClock) Tick() {
	c.begins = append(c.begins, time.Now())
	c.slow = append(c.slow, c.ref.Slowdown(c.passes))
	c.ends = append(c.ends, time.Now())
}

// Ticks is how many batch draws the clock has seen.
func (c *StepClock) Ticks() int { return len(c.begins) }

// TickSeconds is the wall-clock time the last n ticks took themselves: time
// the caller takes back out of whatever else was timing across them.
func (c *StepClock) TickSeconds(n int) float64 {
	var sum time.Duration
	for i := len(c.begins) - n; i < len(c.begins); i++ {
		sum += c.ends[i].Sub(c.begins[i])
	}
	return sum.Seconds()
}

// Slowdowns returns every reference sample, in order.
func (c *StepClock) Slowdowns() []float64 { return c.slow }

// Steps returns the nominal milliseconds of every step from tick first on.
// A step's slowdown is the mean of the samples on its two sides.
func (c *StepClock) Steps(first int) []float64 {
	var ms []float64
	for i := first; i+1 < len(c.begins); i++ {
		wall := c.begins[i+1].Sub(c.ends[i]).Seconds()
		ms = append(ms, wall*1e3/((c.slow[i]+c.slow[i+1])/2))
	}
	return ms
}

// Setup returns the nominal seconds from start to tick first, the ticks on
// the way left out: what the process spent before its first timed step.
func (c *StepClock) Setup(start time.Time, first int) float64 {
	wall := c.begins[first].Sub(start)
	for i := 0; i < first; i++ {
		wall -= c.ends[i].Sub(c.begins[i])
	}
	return wall.Seconds() / Median(c.slow[:first+1])
}
