package memprof

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apollo/internal/obs"
)

// TestNilProfiler pins the disabled mode: every method on a nil handle is a
// no-op, never a panic.
func TestNilProfiler(t *testing.T) {
	var p *Profiler
	p.Track("x", func() int64 { return 1 })
	p.Set("x", 2)
	p.Predict("x", 3)
	p.PredictFunc("x", func() float64 { return 4 })
	p.ObserveStep(1)
	if s := p.Sample(1); s.TotalBytes != 0 {
		t.Fatalf("nil Sample = %+v", s)
	}
	if got := p.Read("x"); got != 0 {
		t.Fatalf("nil Read = %d", got)
	}
	if pk := p.Peak(); pk.TotalBytes != 0 {
		t.Fatalf("nil Peak = %+v", pk)
	}
	if path := p.CaptureHeapProfile("x"); path != "" {
		t.Fatalf("nil capture wrote %q", path)
	}
	stop := p.StartSampler(time.Millisecond)
	stop()
}

// TestLedgerSampleAndDelta covers the component ledger, the measured total,
// and the measured-vs-predicted delta math on a sample.
func TestLedgerSampleAndDelta(t *testing.T) {
	var buf bytes.Buffer
	p := New(Config{Out: obs.NewJSONLWriter(&buf)})
	pulled := int64(1000)
	p.Track("weights", func() int64 { return pulled })
	p.Set("grads", 500)
	p.Predict("weights", 800) // measured 1000 → delta +0.25

	s := p.Sample(7)
	if s.Step != 7 {
		t.Fatalf("step = %d", s.Step)
	}
	if s.Components["weights"] != 1000 || s.Components["grads"] != 500 {
		t.Fatalf("components = %v", s.Components)
	}
	if s.TotalBytes != 1500 {
		t.Fatalf("total = %d", s.TotalBytes)
	}
	if got := s.DeltaFrac["weights"]; got < 0.2499 || got > 0.2501 {
		t.Fatalf("delta = %v", got)
	}
	if !s.HighWater {
		t.Fatal("first sample should set the high-water mark")
	}
	if s.HeapInuse == 0 || s.HeapSys == 0 {
		t.Fatalf("runtime stats missing: %+v", s)
	}

	// The pulled component follows its source; the pushed one is sticky.
	pulled = 2000
	if got := p.Read("weights"); got != 2000 {
		t.Fatalf("Read(weights) = %d", got)
	}
	if got := p.Read("grads"); got != 500 {
		t.Fatalf("Read(grads) = %d", got)
	}

	// Emitted JSONL round-trips to the same sample.
	var back Sample
	line := strings.TrimSpace(buf.String())
	if err := json.Unmarshal([]byte(line), &back); err != nil {
		t.Fatalf("unmarshal %q: %v", line, err)
	}
	if back.TotalBytes != 1500 || back.Components["grads"] != 500 {
		t.Fatalf("round-trip = %+v", back)
	}
}

// TestPeak pins peak tracking: the highest ledger total, not the latest.
func TestPeak(t *testing.T) {
	p := New(Config{})
	v := int64(0)
	p.Track("x", func() int64 { return v })
	for i := 1; i <= 6; i++ {
		v = int64(i * 100)
		if i == 5 {
			v = 50 // dip: not a new peak
		}
		p.Sample(i)
	}
	if pk := p.Peak(); pk.TotalBytes != 600 || pk.Step != 6 {
		t.Fatalf("peak = total %d step %d", pk.TotalBytes, pk.Step)
	}
}

// TestSampleEvery pins the ObserveStep cadence.
func TestSampleEvery(t *testing.T) {
	var buf bytes.Buffer
	p := New(Config{SampleEvery: 3, Out: obs.NewJSONLWriter(&buf)})
	p.Set("x", 1)
	for step := 1; step <= 9; step++ {
		p.ObserveStep(step)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("samples = %d, want 3", len(lines))
	}
	for i, want := range []int{3, 6, 9} {
		var s Sample
		if err := json.Unmarshal([]byte(lines[i]), &s); err != nil || s.Step != want {
			t.Fatalf("sample %d at step %d (err %v), want %d", i, s.Step, err, want)
		}
	}
}

// TestGaugeFamily checks the apollo_mem_bytes family and runtime gauges
// render on the registry, reading live values.
func TestGaugeFamily(t *testing.T) {
	r := obs.NewRegistry()
	p := New(Config{Registry: r})
	v := int64(1234)
	p.Track("weights", func() int64 { return v })
	p.Set("grads", 42)

	var buf bytes.Buffer
	if err := r.RenderPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`apollo_mem_bytes{component="weights"} 1234`,
		`apollo_mem_bytes{component="grads"} 42`,
		`apollo_mem_runtime_bytes{kind="heap_inuse"}`,
		"apollo_mem_gc_cycles_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Gauges are live: render again after the source moves.
	v = 99
	buf.Reset()
	if err := r.RenderPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `apollo_mem_bytes{component="weights"} 99`) {
		t.Fatalf("gauge not live:\n%s", buf.String())
	}

	// A second profiler against the same registry must not panic on the
	// runtime gauges (the serve auto-create path).
	_ = New(Config{Registry: r})
}

// TestHighWaterCapture trips the heap high-water threshold and checks a
// profile lands in the dir, exactly once, and that MaxProfiles bounds
// manual captures.
func TestHighWaterCapture(t *testing.T) {
	dir := t.TempDir()
	p := New(Config{HighWater: 1, ProfileDir: dir, MaxProfiles: 3})
	p.Set("x", 1)
	p.Sample(1)
	p.Sample(2) // second crossing: no second automatic capture

	globbed, err := filepath.Glob(filepath.Join(dir, "heap-highwater-*.pprof"))
	if err != nil || len(globbed) != 1 {
		t.Fatalf("highwater profiles = %v (err %v), want exactly 1", globbed, err)
	}
	if fi, err := os.Stat(globbed[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("profile %s empty or unreadable: %v", globbed[0], err)
	}

	if path := p.CaptureHeapProfile("watchdog loss-spike"); path == "" {
		t.Fatal("manual capture failed")
	} else if !strings.Contains(filepath.Base(path), "watchdog-loss-spike") {
		t.Fatalf("reason not sanitized into name: %s", path)
	}
	p.CaptureHeapProfile("three")
	if path := p.CaptureHeapProfile("four"); path != "" {
		t.Fatalf("capture past MaxProfiles wrote %s", path)
	}
	globbed, _ = filepath.Glob(filepath.Join(dir, "heap-*.pprof"))
	if len(globbed) != 3 {
		t.Fatalf("profiles on disk = %d, want 3", len(globbed))
	}
}

// TestConcurrentSampling races Track/Set/Sample/Read under -race.
func TestConcurrentSampling(t *testing.T) {
	p := New(Config{})
	p.Track("a", func() int64 { return 1 })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch g {
				case 0:
					p.Set("b", int64(i))
				case 1:
					p.Sample(i)
				case 2:
					p.Read("a")
				default:
					p.ObserveStep(i)
					p.Peak()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStartSampler smoke-tests the background cadence used by serve.
func TestStartSampler(t *testing.T) {
	p := New(Config{})
	var samples atomic.Int64 // every Sample pulls the component once
	p.Track("x", func() int64 { samples.Add(1); return 7 })
	stop := p.StartSampler(2 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for samples.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	if samples.Load() < 2 {
		t.Fatalf("background sampler produced %d samples", samples.Load())
	}
}
