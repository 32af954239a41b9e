package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/runtime"
	"apollo/internal/tensor"
)

func matParam(t *testing.T, name string, rows, cols int, seed uint64) *nn.Param {
	t.Helper()
	rng := tensor.NewRNG(seed)
	return nn.NewParam(name, nn.KindMatrix, tensor.NewMatrixRand(rows, cols, 0.1, rng))
}

func fillGrad(p *nn.Param, rng *tensor.RNG, std float64) {
	for i := range p.Grad.Data {
		p.Grad.Data[i] = float32(rng.Norm() * std)
	}
}

func TestLimitNormGrowth(t *testing.T) {
	rng := tensor.NewRNG(1)
	g := tensor.NewMatrixRand(4, 4, 1, rng)
	norm := g.Norm()
	// First step: no limiting.
	got := optim.LimitNormGrowth(g, 0, 1.01)
	if math.Abs(got-norm) > 1e-9 {
		t.Fatalf("first-step norm %v want %v", got, norm)
	}
	// Growth above γ·prev is clamped to exactly γ·prev.
	prev := norm / 10
	got = optim.LimitNormGrowth(g, prev, 1.01)
	if math.Abs(got-1.01*prev) > 1e-6 {
		t.Fatalf("limited norm %v want %v", got, 1.01*prev)
	}
	if math.Abs(g.Norm()-1.01*prev) > 1e-6 {
		t.Fatalf("matrix norm %v not rescaled to %v", g.Norm(), 1.01*prev)
	}
	// Growth below the threshold passes through.
	g2 := tensor.NewMatrixRand(4, 4, 1, rng)
	n2 := g2.Norm()
	got = optim.LimitNormGrowth(g2, n2, 1.01)
	if math.Abs(got-n2) > 1e-9 {
		t.Fatalf("unlimited norm %v want %v", got, n2)
	}
}

func TestAPOLLOStateBytesMatchesTable1(t *testing.T) {
	// Table 1: APOLLO keeps 2nr + 2 state for an m×n matrix.
	const m, n, r = 16, 48, 4
	p := matParam(t, "w", m, n, 1)
	a := New(optim.Hyper{LR: 0.01}, Config{Rank: r, Granularity: Channel})
	rng := tensor.NewRNG(2)
	fillGrad(p, rng, 1)
	a.Step([]*nn.Param{p})
	want := int64(4 * (2*n*r + 2))
	if got := a.StateBytes(); got != want {
		t.Fatalf("StateBytes = %d want %d (= 4·(2nr+2))", got, want)
	}
}

func TestAPOLLOMiniStateBytesMatchesTable1(t *testing.T) {
	// Table 1: APOLLO-Mini keeps 2n + 2 state.
	const m, n = 16, 48
	p := matParam(t, "w", m, n, 3)
	a := NewMini(optim.Hyper{LR: 0.01})
	rng := tensor.NewRNG(4)
	fillGrad(p, rng, 1)
	a.Step([]*nn.Param{p})
	want := int64(4 * (2*n + 2))
	if got := a.StateBytes(); got != want {
		t.Fatalf("StateBytes = %d want %d (= 4·(2n+2))", got, want)
	}
}

func TestAPOLLOSVDStateIncludesProjection(t *testing.T) {
	const m, n, r = 16, 48, 4
	p := matParam(t, "w", m, n, 5)
	a := New(optim.Hyper{LR: 0.01}, Config{Rank: r, Projection: linalg.SVDProjection})
	rng := tensor.NewRNG(6)
	fillGrad(p, rng, 1)
	a.Step([]*nn.Param{p})
	want := int64(4 * (2*n*r + r*m + 1))
	if got := a.StateBytes(); got != want {
		t.Fatalf("StateBytes = %d want %d (2nr moments + rm projection + limiter)", got, want)
	}
}

func TestAPOLLOStateTinyVsAdamW(t *testing.T) {
	// The headline claim: APOLLO-Mini's state is negligible next to AdamW's
	// 2mn on the same parameter.
	const m, n = 64, 256
	p1 := matParam(t, "w", m, n, 7)
	p2 := matParam(t, "w", m, n, 7)
	rng := tensor.NewRNG(8)
	fillGrad(p1, rng, 1)
	p2.Grad.CopyFrom(p1.Grad)

	mini := NewMini(optim.Hyper{LR: 0.01})
	adam := optim.NewAdamW(optim.Hyper{LR: 0.01})
	mini.Step([]*nn.Param{p1})
	adam.Step([]*nn.Param{p2})
	if mini.StateBytes()*20 > adam.StateBytes() {
		t.Fatalf("Mini state %d not ≪ AdamW state %d", mini.StateBytes(), adam.StateBytes())
	}
}

func TestAPOLLOUpdateDirectionIsScaledGradient(t *testing.T) {
	// APOLLO's update must be the raw gradient with per-channel rescaling:
	// zero weight decay ⇒ ΔW[:,j] ∝ G[:,j] for every channel j.
	const m, n, r = 8, 24, 4
	p := matParam(t, "w", m, n, 9)
	before := p.W.Clone()
	a := New(optim.Hyper{LR: 0.01}, Config{Rank: r, Granularity: Channel, DisableNL: true})
	rng := tensor.NewRNG(10)
	fillGrad(p, rng, 1)
	g := p.Grad.Clone()
	a.Step([]*nn.Param{p})
	delta := tensor.Sub(p.W, before)
	for j := 0; j < n; j++ {
		dcol := delta.Col(j)
		gcol := g.Col(j)
		// Cosine between Δ column and −G column should be ±1.
		dot := tensor.Dot(dcol, gcol)
		cos := float64(dot) / (tensor.NormSlice(dcol)*tensor.NormSlice(gcol) + 1e-20)
		if math.Abs(math.Abs(cos)-1) > 1e-4 {
			t.Fatalf("channel %d: |cos|=%v, update not collinear with gradient", j, math.Abs(cos))
		}
	}
}

// TestScalingRatioTheorem empirically validates Theorem A.4 / Fig. 4: the
// APOLLO channel scaling factor at rank r is ≈ √(r/n) times the full-rank
// structured factor. The paper validates this on square layers (m = n, the
// LLaMA-350M attention matrices); for m ≠ n the ratio actually tracks
// √(r/m) because channel norms span the smaller dimension — we follow the
// paper's square setup here; `apollo-bench -run fig4` prints the same ratio.
func TestScalingRatioTheorem(t *testing.T) {
	const m, n = 96, 96
	hyper := optim.Hyper{LR: 0} // LR 0: probe scales without moving weights

	run := func(rank int) float64 {
		var full *StructuredAdamW
		var apollo *APOLLO
		pF := matParam(t, "w", m, n, 11)
		pA := matParam(t, "w", m, n, 11)
		full = NewStructuredAdamW(hyper, Channel)
		apollo = New(hyper, Config{Rank: rank, Granularity: Channel, Scale: 1, DisableNL: true})

		var fullScales, apolloScales []float64
		full.ScalingProbe = func(_ string, s []float64) {
			fullScales = append([]float64{}, s...)
		}
		apollo.ScalingProbe = func(_ string, s []float64) {
			apolloScales = append([]float64{}, s...)
		}
		rng := tensor.NewRNG(12)
		var ratioSum float64
		var count int
		for step := 0; step < 25; step++ {
			fillGrad(pF, rng, 1)
			pA.Grad.CopyFrom(pF.Grad)
			full.Step([]*nn.Param{pF})
			apollo.Step([]*nn.Param{pA})
			if step < 5 {
				continue // let the moments warm up
			}
			for j := range fullScales {
				if fullScales[j] > 1e-9 {
					ratioSum += apolloScales[j] / fullScales[j]
					count++
				}
			}
		}
		return ratioSum / float64(count)
	}

	for _, rank := range []int{12, 24} {
		got := run(rank)
		want := math.Sqrt(float64(rank) / float64(n))
		if math.Abs(got-want)/want > 0.25 {
			t.Fatalf("rank %d: mean scale ratio %v want ≈ √(r/n) = %v", rank, got, want)
		}
	}
}

func TestAPOLLODeterministic(t *testing.T) {
	mk := func() *nn.Param { return matParam(t, "w", 8, 16, 13) }
	run := func() *tensor.Matrix {
		p := mk()
		a := New(optim.Hyper{LR: 0.01}, Config{Rank: 2, Seed: 99})
		rng := tensor.NewRNG(14)
		for i := 0; i < 10; i++ {
			fillGrad(p, rng, 1)
			a.Step([]*nn.Param{p})
		}
		return p.W
	}
	if !run().Equal(run()) {
		t.Fatal("APOLLO must be deterministic given its seed")
	}
}

func TestAPOLLOFallbackForVectors(t *testing.T) {
	rng := tensor.NewRNG(15)
	vec := nn.NewParam("gain", nn.KindVector, tensor.NewMatrixRand(1, 8, 0.1, rng))
	before := vec.W.Clone()
	a := NewMini(optim.Hyper{LR: 0.05})
	fillGrad(vec, rng, 1)
	a.Step([]*nn.Param{vec})
	if vec.W.Equal(before) {
		t.Fatal("vector param not updated through the dense fallback")
	}
}

func TestAPOLLOSubspaceRefresh(t *testing.T) {
	// With UpdateGap = 2, the projection seed must change across refreshes.
	p := matParam(t, "w", 8, 16, 16)
	a := New(optim.Hyper{LR: 0.001}, Config{Rank: 2, UpdateGap: 2, Seed: 7})
	rng := tensor.NewRNG(17)
	seeds := map[uint64]bool{}
	for i := 0; i < 6; i++ {
		fillGrad(p, rng, 1)
		a.Step([]*nn.Param{p})
		st, err := a.CaptureParam(p)
		if err != nil || st == nil {
			t.Fatalf("no captured state: %v", err)
		}
		// Canonical layout: Scalars [t, since, prevNorm, proj seed, ...].
		seeds[st.Scalars[3]] = true
	}
	if len(seeds) < 3 {
		t.Fatalf("projection refreshed only %d times over 6 steps with gap 2", len(seeds))
	}
}

// An 8×16 APOLLO state must not restore into a 4×16 parameter: both have
// n = 16, so the moment shapes agree and only the projected dimension in the
// scalar channel tells them apart. Before the engine checked it, the restore
// succeeded and the next Step panicked multiplying a 2×8 projection into a
// 4×16 gradient.
func TestAPOLLORestoreRejectsOtherParametersState(t *testing.T) {
	cfg := Config{Rank: 2, Seed: 7}
	from := matParam(t, "w", 8, 16, 16)
	a := New(optim.Hyper{LR: 0.001}, cfg)
	fillGrad(from, tensor.NewRNG(17), 1)
	a.Step([]*nn.Param{from})
	st, err := a.CaptureParam(from)
	if err != nil || st == nil {
		t.Fatalf("no captured state: %v", err)
	}
	into := matParam(t, "w", 4, 16, 18)
	if err := New(optim.Hyper{LR: 0.001}, cfg).RestoreParam(into, st); err == nil {
		t.Fatal("8x16 state restored into a 4x16 parameter")
	}
}

// structuredSpikeGrads builds the two-step scenario where the update norm
// genuinely spikes without the limiter: step one activates a single channel
// (update norm ≈ u), step two activates all n channels (≈ √n·u). Pure
// magnitude blow-ups do NOT spike APOLLO — the scaling factor is
// self-normalizing in ‖G‖ — so the spike must come from a structural change.
func structuredSpikeGrads(p *nn.Param, rng *tensor.RNG, allChannels bool) {
	p.Grad.Zero()
	for i := 0; i < p.Grad.Rows; i++ {
		row := p.Grad.Row(i)
		for j := range row {
			if allChannels || j == 0 {
				row[j] = rng.NormFloat32()
			}
		}
	}
}

func TestAPOLLONormGrowthLimited(t *testing.T) {
	p := matParam(t, "w", 8, 16, 18)
	a := New(optim.Hyper{LR: 1}, Config{Rank: 2, Granularity: Channel, Scale: 1})
	rng := tensor.NewRNG(19)

	structuredSpikeGrads(p, rng, false)
	before := p.W.Clone()
	a.Step([]*nn.Param{p})
	normalStep := tensor.Sub(p.W, before).Norm()

	structuredSpikeGrads(p, rng, true)
	before = p.W.Clone()
	a.Step([]*nn.Param{p})
	bigStep := tensor.Sub(p.W, before).Norm()

	if bigStep > normalStep*DefaultGamma*1.05 {
		t.Fatalf("limiter failed: step grew from %v to %v", normalStep, bigStep)
	}
}

// TestAPOLLOWithoutNLCanSpike: with the limiter off, the structural change
// grows the update by ≈ √n in expectation, but by how much for one projector
// depends on its draw (a rank-2 projection can shrink the lone first-step
// channel), so the claim is made of the median over nine projector seeds.
func TestAPOLLOWithoutNLCanSpike(t *testing.T) {
	var ratios []float64
	for seed := uint64(1); seed <= 9; seed++ {
		p := matParam(t, "w", 8, 16, 20)
		a := New(optim.Hyper{LR: 1}, Config{Rank: 2, Granularity: Channel, Scale: 1, DisableNL: true, Seed: seed})
		rng := tensor.NewRNG(21)

		structuredSpikeGrads(p, rng, false)
		before := p.W.Clone()
		a.Step([]*nn.Param{p})
		normalStep := tensor.Sub(p.W, before).Norm()

		structuredSpikeGrads(p, rng, true)
		before = p.W.Clone()
		a.Step([]*nn.Param{p})
		ratios = append(ratios, tensor.Sub(p.W, before).Norm()/normalStep)
	}
	slices.Sort(ratios)
	if ratios[4] < 2 {
		t.Fatalf("expected an unlimited spike: median step growth %v (all %v)", ratios[4], ratios)
	}
}

func TestAPOLLOTransposedMatrices(t *testing.T) {
	// Tall matrices (rows > cols) must be handled through the orientation
	// logic: channels live on the larger dimension.
	p := matParam(t, "w", 32, 8, 22)
	a := New(optim.Hyper{LR: 0.01}, Config{Rank: 2})
	rng := tensor.NewRNG(23)
	before := p.W.Clone()
	for i := 0; i < 3; i++ {
		fillGrad(p, rng, 1)
		a.Step([]*nn.Param{p})
	}
	if p.W.Equal(before) {
		t.Fatal("tall matrix not updated")
	}
	if p.W.HasNaN() {
		t.Fatal("NaN in weights after transposed update")
	}
	// State is 2·n·r + 2 where n = 32 (the larger dim).
	want := int64(4 * (2*32*2 + 2))
	if got := a.StateBytes(); got != want {
		t.Fatalf("StateBytes = %d want %d", got, want)
	}
}

func TestAPOLLONamesDistinguishVariants(t *testing.T) {
	h := optim.Hyper{LR: 0.01}
	if got := New(h, Config{Rank: 4}).Name(); got != "APOLLO" {
		t.Fatalf("Name = %q", got)
	}
	if got := NewMini(h).Name(); got != "APOLLO-Mini" {
		t.Fatalf("Name = %q", got)
	}
	if got := New(h, Config{Rank: 4, Projection: linalg.SVDProjection}).Name(); got != "APOLLO w. SVD" {
		t.Fatalf("Name = %q", got)
	}
}

func TestAPOLLOWeightDecayApplied(t *testing.T) {
	p := matParam(t, "w", 8, 16, 24)
	a := New(optim.Hyper{LR: 0.1, WeightDecay: 0.5}, Config{Rank: 2})
	// Zero gradient: the update must be pure decay (scaling factors are 0
	// because R = 0).
	before := p.W.Clone()
	a.Step([]*nn.Param{p})
	want := tensor.Scale(float32(1-0.1*0.5), before)
	if !p.W.AllClose(want, 1e-6) {
		t.Fatal("decoupled weight decay not applied")
	}
}

// TestScalingProbeSerialAndOrdered pins the probe's contract under the
// parallel step: called on the goroutine that called Step (the probe below
// appends to a plain slice, which -race would flag otherwise), once per
// projected matrix per step, in parameter-list order, with the same factors
// at any pool width.
func TestScalingProbeSerialAndOrdered(t *testing.T) {
	defer runtime.SetWorkers(runtime.Workers())
	const steps = 4
	var projected []string
	record := func(width int) []string {
		runtime.SetWorkers(width)
		var ps []*nn.Param
		projected = projected[:0]
		for i := 0; i < 9; i++ {
			name := fmt.Sprintf("w%d", i)
			rows, cols := 8+i, 24-i // both orientations
			if i%4 == 3 {
				rows = 3 // not projected at rank 4: never probed
			} else {
				projected = append(projected, name)
			}
			ps = append(ps, matParam(t, name, rows, cols, uint64(50+i)))
		}
		opt := New(optim.Hyper{LR: 0.01}, Config{Rank: 4, Seed: 11, UpdateGap: 2})
		var calls []string
		opt.ScalingProbe = func(name string, s []float64) {
			calls = append(calls, fmt.Sprintf("%s:%016x", name, math.Float64bits(s[0])))
		}
		rng := tensor.NewRNG(60)
		for step := 0; step < steps; step++ {
			for _, p := range ps {
				fillGrad(p, rng, 1)
			}
			opt.Step(ps)
		}
		return calls
	}
	serial, wide := record(1), record(4)

	if want := steps * len(projected); len(serial) != want {
		t.Fatalf("probe called %d times, want %d (%d projected matrices × %d steps)", len(serial), want, len(projected), steps)
	}
	for i, call := range serial {
		if name := projected[i%len(projected)]; call[:len(name)+1] != name+":" {
			t.Fatalf("probe call %d was %s, want parameter %s", i, call, name)
		}
	}
	if fmt.Sprint(serial) != fmt.Sprint(wide) {
		t.Errorf("probe sequence at 4 workers differs from 1 worker:\n%v\n%v", wide, serial)
	}
}
