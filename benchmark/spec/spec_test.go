package spec

import (
	"math"
	"testing"
	"time"
)

// The reference values are what Python's statistics.quantiles(v, n=4) and
// numpy.percentile(v, q) print for the same input.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3, err := Quartiles([]float64{10, 1, 7, 3, 5, 9, 2, 8, 6, 4})
	if err != nil || q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v %v, want 2.75 5.5 8.25", q1, med, q3, err)
	}
	// Three values: the outer cut points extrapolate, as Python's do.
	q1, med, q3, err = Quartiles([]float64{1, 2, 4})
	if err != nil || q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("got %v %v %v %v, want 1 2 4", q1, med, q3, err)
	}
	if _, _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("one value has no quartiles")
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	if got := Quantile(v, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := Median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty sample must give NaN")
	}
}

// A clock with hand-set stamps: steps run between one tick's end and the
// next tick's beginning, and are divided by the mean of the two samples.
func TestStepClockNominal(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	c := &StepClock{
		begins: []time.Time{at(100), at(310), at(720)},
		ends:   []time.Time{at(110), at(320), at(730)},
		slow:   []float64{1, 3, 1},
	}
	steps := c.Steps(0)
	if len(steps) != 2 || math.Abs(steps[0]-100) > 1e-9 || math.Abs(steps[1]-200) > 1e-9 {
		t.Errorf("steps %v, want [100 200]: 200 ms and 400 ms of wall clock on a host twice slower", steps)
	}
	if got := c.Steps(1); len(got) != 1 {
		t.Errorf("steps from tick 1: %v, want one", got)
	}
	// 310 ms to tick 1, 10 ms of it inside tick 0, median sample 2.
	if got := c.Setup(t0, 1); math.Abs(got-0.150) > 1e-9 {
		t.Errorf("setup %v s, want 0.150", got)
	}
	if got := c.TickSeconds(2); math.Abs(got-0.020) > 1e-9 {
		t.Errorf("last two ticks took %v s, want 0.020", got)
	}
}

func TestHostRefReads(t *testing.T) {
	if v := NewHostRef().Slowdown(2); !(v > 0) || math.IsInf(v, 0) {
		t.Errorf("slowdown %v", v)
	}
}
