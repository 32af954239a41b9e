package nn

import (
	"fmt"
	"math"
	goruntime "runtime"
	"strings"
	"testing"

	"apollo/internal/runtime"
	"apollo/internal/tensor"
)

// TestForwardFromMatchesForward: ForwardFrom's rows are bit for bit the rows
// of the same positions in Forward's logits, on the 60M and 350M proxy
// shapes (internal/bench's Proxies), for one sequence and for several, from
// the first position, the second, the middle and the last. A full Forward
// runs between the two so ForwardFrom meets an arena a longer pass dirtied.
func TestForwardFromMatchesForward(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"60M", Config{Vocab: 256, Dim: 32, Hidden: 88, Heads: 4, Layers: 2, MaxSeq: 128}},
		{"350M", Config{Vocab: 256, Dim: 64, Hidden: 176, Heads: 4, Layers: 4, MaxSeq: 128}},
	} {
		model := NewModel(tc.cfg, tensor.NewRNG(31))
		model.SetGradPolicy(NoGrads)
		for _, batch := range []int{1, 5} {
			const seq = 23
			tokens, _ := arenaBatch(tensor.NewRNG(uint64(32+batch)), tc.cfg.Vocab, batch, seq)
			want := model.Forward(tokens, batch, seq).Clone()
			for _, from := range []int{0, 1, seq / 2, seq - 1} {
				model.Forward(tokens, batch, seq)
				got := model.ForwardFrom(tokens, batch, seq, from)
				tail := seq - from
				if got.Rows != batch*tail || got.Cols != tc.cfg.Vocab {
					t.Fatalf("%s %dx%d from %d: logits %dx%d, want %dx%d",
						tc.name, batch, seq, from, got.Rows, got.Cols, batch*tail, tc.cfg.Vocab)
				}
				for r := 0; r < got.Rows; r++ {
					wantRow := want.Row(r/tail*seq + from + r%tail)
					for j, v := range got.Row(r) {
						if math.Float32bits(v) != math.Float32bits(wantRow[j]) {
							t.Fatalf("%s %dx%d from %d: row %d col %d is %v, Forward's %v",
								tc.name, batch, seq, from, r, j, v, wantRow[j])
						}
					}
				}
			}
		}
	}
}

// TestForwardFromSteadyStateAllocs: a model alternating Forward and
// ForwardFrom asks its arena for the same buffers in the same order, only
// smaller at from > 0, so the tail forward grows the arena of a model that
// ran Forward by 0 B, takes no extra position, and a Forward+ForwardFrom
// pair allocates no more heap than two Forwards (the pool's closures).
func TestForwardFromSteadyStateAllocs(t *testing.T) {
	defer runtime.SetWorkers(runtime.Workers())
	runtime.SetWorkers(1)
	cfg := Config{Vocab: 64, Dim: 32, Hidden: 64, Heads: 2, Layers: 2, MaxSeq: 32}
	const batch, seq, from = 4, 24, 17
	model := NewModel(cfg, tensor.NewRNG(34))
	tokens, _ := arenaBatch(tensor.NewRNG(35), cfg.Vocab, batch, seq)
	perPass := func(pass func()) float64 {
		pass()
		const runs = 10
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for range runs {
			pass()
		}
		goruntime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	full := perPass(func() {
		model.Forward(tokens, batch, seq)
		model.Forward(tokens, batch, seq)
	})
	slots, held := model.ws.slotCount(), model.ActivationBytes()
	mixed := perPass(func() {
		model.Forward(tokens, batch, seq)
		model.ForwardFrom(tokens, batch, seq, from)
	})
	if n := model.ws.slotCount(); n != slots {
		t.Errorf("ForwardFrom took %d arena positions, Forward %d", n, slots)
	}
	if grown := model.ActivationBytes() - held; grown != 0 {
		t.Errorf("ForwardFrom grew the arena by %d B", grown)
	}
	if mixed > full {
		t.Errorf("Forward+ForwardFrom allocates %.0f bytes per pair, two Forwards %.0f", mixed, full)
	}
	t.Logf("%.0f bytes per Forward+ForwardFrom pair, %.0f per two Forwards", mixed, full)
}

// TestBackwardAfterForwardFromPanics: a forward from a later position keeps
// only the tail's activations, so a backward pass over it panics and names
// the position; a forward from 0 can be backpropagated again.
func TestBackwardAfterForwardFromPanics(t *testing.T) {
	cfg := tinyConfig()
	model := NewModel(cfg, tensor.NewRNG(36))
	tokens := []int{1, 2, 3, 4, 5, 6}
	model.ForwardFrom(tokens, 1, 6, 3)
	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), "from position 3") {
				t.Fatalf("BackwardRelease after ForwardFrom(…, 3) recovered %v, want a panic naming the position", r)
			}
		}()
		model.BackwardRelease(nil, nil)
	}()
	model.Loss(tokens, tokens, 1, 6)
}

// slotCount counts the arena positions of both lists.
func (w *workspace) slotCount() int { return len(w.kept.slots) + len(w.trans.slots) }
