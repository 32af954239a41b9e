package obs

import (
	"math"
	"sync"
)

// HistogramWindow is a rolling readout over a Histogram: quantiles and
// counts computed from only the observations recorded since the last
// Rotate. The cumulative histograms this package exposes are the right
// shape for Prometheus but the wrong shape for a live control signal — a
// load-shedding decision must react to the last second of queue waits, not
// the lifetime distribution — so a window remembers the cumulative bucket
// counts at its last rotation and reads quantiles off the delta.
//
// The underlying histogram keeps absorbing observations lock-free; the
// window never copies or resets it, so any number of windows (and the
// /metrics exposition) can read the same histogram independently.
//
// One approximation: the delta has no per-window maximum, so a windowed
// quantile landing in the +Inf overflow bucket reports the histogram's
// lifetime maximum — an upper bound, which is the conservative direction
// for a shed signal. All methods are nil-receiver safe, like every other
// obs handle.
type HistogramWindow struct {
	h    *Histogram
	mu   sync.Mutex
	prev []int64 // cumulative bucket counts at the last rotation
}

// Window returns a fresh window over the histogram, starting now: only
// observations recorded after this call are visible until the first
// Rotate. A nil histogram yields a nil (disabled) window.
func (h *Histogram) Window() *HistogramWindow {
	if h == nil {
		return nil
	}
	return &HistogramWindow{h: h, prev: h.snapshot()}
}

// Rotate advances the window start to now: observations recorded before
// this call stop counting toward Quantile and Count.
func (w *HistogramWindow) Rotate() {
	if w == nil {
		return
	}
	snap := w.h.snapshot()
	w.mu.Lock()
	w.prev = snap
	w.mu.Unlock()
}

// delta returns cumulative bucket counts over the window (aligned with the
// histogram's buckets; the last element is the window's observation count).
func (w *HistogramWindow) delta() []int64 {
	snap := w.h.snapshot()
	w.mu.Lock()
	for i := range snap {
		snap[i] -= w.prev[i]
	}
	w.mu.Unlock()
	return snap
}

// Count returns how many observations the window holds.
func (w *HistogramWindow) Count() int64 {
	if w == nil {
		return 0
	}
	d := w.delta()
	return d[len(d)-1]
}

// Quantile returns the q-quantile (0 < q <= 1) of the windowed
// observations by BucketQuantile's rule, restricted to observations since
// the last Rotate. No windowed max exists, so the overflow bucket reports
// the lifetime max — the conservative upper bound. An empty window returns 0.
func (w *HistogramWindow) Quantile(q float64) float64 {
	if w == nil {
		return 0
	}
	return BucketQuantile(w.h.le, w.delta(), math.Float64frombits(w.h.max.Load()), q)
}
