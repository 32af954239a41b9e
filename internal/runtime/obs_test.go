package runtime

import (
	"strings"
	"sync/atomic"
	"testing"

	"apollo/internal/obs"
)

// TestPoolInstrument wires a registry into a private pool, fans out work,
// and checks the counters and gauges land in the exposition. Also pins that
// instrumentation never changes the computed result.
func TestPoolInstrument(t *testing.T) {
	p := NewPool(4)
	defer p.Resize(1)
	reg := obs.NewRegistry()
	p.Instrument(reg)

	const n = 1000
	var sum atomic.Int64
	p.ForRange(n, 1, func(i0, i1 int) {
		var local int64
		for i := i0; i < i1; i++ {
			local += int64(i)
		}
		sum.Add(local)
	})
	if got, want := sum.Load(), int64(n*(n-1)/2); got != want {
		t.Fatalf("instrumented ForRange sum = %d, want %d", got, want)
	}

	var b strings.Builder
	if err := reg.RenderPrometheus(&b); err != nil {
		t.Fatal(err)
	}
	expo := b.String()
	if !strings.Contains(expo, "apollo_pool_forrange_total 1\n") {
		t.Fatalf("forrange counter missing:\n%s", expo)
	}
	if !strings.Contains(expo, "apollo_pool_workers 4\n") {
		t.Fatalf("workers gauge missing:\n%s", expo)
	}
	if !strings.Contains(expo, "apollo_pool_forrange_chunks_count 1\n") {
		t.Fatalf("chunks histogram missing:\n%s", expo)
	}
	// The histogram sees the chunks actually cut, not one per worker.
	if !strings.Contains(expo, `apollo_pool_forrange_chunks_bucket{le="4"} 0`+"\n") {
		t.Fatalf("a %d-item fan-out at width 4 recorded no more than 4 chunks:\n%s", n, expo)
	}

	// Disable again: further work must not count.
	p.Instrument(nil)
	p.ForRange(n, 1, func(i0, i1 int) {})
	var b2 strings.Builder
	if err := reg.RenderPrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "apollo_pool_forrange_total 1\n") {
		t.Fatalf("disabled pool still counted:\n%s", b2.String())
	}
}

// TestPoolSerialForRangeUncounted pins that a ForRange too small to fan out
// (serial fallback) does not count as a fanned-out call.
func TestPoolSerialForRangeUncounted(t *testing.T) {
	p := NewPool(4)
	defer p.Resize(1)
	reg := obs.NewRegistry()
	p.Instrument(reg)
	p.ForRange(2, 100, func(i0, i1 int) {}) // below minPerTask threshold
	var b strings.Builder
	if err := reg.RenderPrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "apollo_pool_forrange_total 0\n") {
		t.Fatalf("serial ForRange counted as fan-out:\n%s", b.String())
	}
}
