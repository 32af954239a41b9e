package serve

import (
	"bytes"
	"runtime"
	"testing"

	"apollo/internal/eval"
	"apollo/internal/obs"
	"apollo/internal/obs/memprof"
)

// TestEvictionMemoryAccounting pins the serve half of the memory ledger: an
// LRU eviction must take the evicted snapshot's bytes out of the
// apollo_mem_bytes{component="serve_snapshots"} gauge, the gauge must agree
// with apollo_serve_resident_models at every point, and after eviction + GC
// the resident accounting is back to the one-model baseline.
func TestEvictionMemoryAccounting(t *testing.T) {
	metrics := obs.NewRegistry()
	reg := newTestRegistry(t, Config{MaxModels: 1, Metrics: metrics})

	dirA, dirB := t.TempDir(), t.TempDir()
	pathA, _ := trainAndSave(t, dirA, 1)
	pathB, _ := trainAndSave(t, dirB, 2)

	snapshotGauges := func() (snapBytes, models float64) {
		t.Helper()
		var buf bytes.Buffer
		if err := metrics.RenderPrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		expo := buf.String()
		return metricValue(t, expo, `apollo_mem_bytes{component="serve_snapshots"}`),
			metricValue(t, expo, "apollo_serve_resident_models")
	}

	ledgerTotal := func() int64 {
		var total int64
		for _, e := range reg.Entries() {
			total += e.ResidentBytes()
		}
		return total
	}

	eA, err := reg.Acquire(pathA)
	if err != nil {
		t.Fatal(err)
	}
	gauge, models := snapshotGauges()
	if models != 1 {
		t.Fatalf("resident_models = %v after first acquire", models)
	}
	if gauge != float64(eA.ResidentBytes()) || int64(gauge) != ledgerTotal() {
		t.Fatalf("gauge %v != resident %d (ledger %d)", gauge, eA.ResidentBytes(), ledgerTotal())
	}
	baseline := gauge

	// Second acquire evicts A (MaxModels 1): A's bytes must leave the
	// component ledger in the same breath.
	eB, err := reg.Acquire(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", reg.Evictions())
	}
	gauge, models = snapshotGauges()
	if models != 1 {
		t.Fatalf("resident_models = %v after eviction", models)
	}
	if gauge != float64(eB.ResidentBytes()) {
		t.Fatalf("gauge %v still carries evicted bytes (B resident = %d)", gauge, eB.ResidentBytes())
	}

	// Eviction + GC returns the accounting to the one-model baseline — the
	// evicted model is genuinely unreachable, not parked in a leaked slot.
	eA = nil //nolint:ineffassign // drop the last strong reference before GC
	runtime.GC()
	gauge, models = snapshotGauges()
	if models != 1 || gauge != baseline {
		t.Fatalf("after GC: gauge %v models %v, want baseline %v / 1 (equal-shape snapshots)", gauge, models, baseline)
	}
	if int64(gauge) != ledgerTotal() {
		t.Fatalf("gauge %v != ledger %d after GC", gauge, ledgerTotal())
	}
}

// TestServeMemprofComponents covers the explicit-profiler path: a
// caller-owned profiler records serve_snapshots with its live ServeBytes
// prediction and the batcher_buffers component in a sampled timeline.
func TestServeMemprofComponents(t *testing.T) {
	mp := memprof.New(memprof.Config{})
	reg := newTestRegistry(t, Config{MaxModels: 2, MemProf: mp})
	path, _ := trainAndSave(t, t.TempDir(), 1)
	e, err := reg.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}

	s := mp.Sample(0)
	if got := s.Components[memprof.CompServeSnapshots]; got != e.ResidentBytes() {
		t.Fatalf("serve_snapshots = %d, resident = %d", got, e.ResidentBytes())
	}
	if _, ok := s.Components[memprof.CompBatcherBuffers]; !ok {
		t.Fatalf("batcher_buffers missing: %v", s.Components)
	}
	pred, ok := s.Predicted[memprof.CompServeSnapshots]
	if !ok || pred != float64(e.PredictedBytes()) {
		t.Fatalf("prediction = %v (ok=%v), ServeBytes = %d", pred, ok, e.PredictedBytes())
	}
	// Memory contract: measured within 2% of the analytic prediction, and
	// the recorded delta says the same.
	delta := s.DeltaFrac[memprof.CompServeSnapshots]
	if delta < -0.02 || delta > 0.02 {
		t.Fatalf("measured-vs-predicted delta %.4f outside ±2%%", delta)
	}

	// An idle batcher pins nothing.
	if got := e.batcher.queuedBytes(); got != 0 {
		t.Fatalf("idle queuedBytes = %d", got)
	}
	q := []*scoreReq{{q: eval.NewQuery([]int{1, 2, 3}, []int{4, 5})}}
	if err := e.batcher.score(q); err != nil {
		t.Fatal(err)
	}
	if q[0].result == 0 {
		t.Fatal("scored request returned 0")
	}
}
