package core

import (
	"fmt"
	"math"
	goruntime "runtime"
	"testing"

	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/runtime"
	"apollo/internal/tensor"
)

// The differential oracle for the fused structured update. The references
// below are the update as it was composed before optim.ApplyScaledGrad
// existed — a cloned gradient, transposed into m×n orientation, scaled per
// column (or as a whole), transposed back, scaled by α, limited, applied —
// and the fused path must reproduce their weights, moments and limiter
// memory bit for bit (NaN ≡ NaN).

// sameFloats reports whether a and b hold the same bits, any NaN equal to any
// other.
func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		y := b[i]
		if math.Float32bits(x) != math.Float32bits(y) && !(x != x && y != y) {
			return false
		}
	}
	return true
}

func sameFloat64(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// unfusedUpdate is the reference composition from the scaling factors on:
// per-column factors of the m×n orientation when channel is non-nil, one
// tensor-wise factor otherwise; the limiter runs when prevNorm is non-nil.
func unfusedUpdate(p *nn.Param, channel []float64, factor, alpha, gamma float64, prevNorm *float64) *tensor.Matrix {
	update := p.Grad.Clone()
	oriented := update
	transposed := p.W.Rows > p.W.Cols
	if transposed {
		oriented = update.T()
	}
	if channel != nil {
		fs := make([]float32, len(channel))
		for j, f := range channel {
			fs[j] = float32(f)
		}
		tensor.ScaleColsInPlace(oriented, fs)
	} else {
		tensor.ScaleInPlace(oriented, float32(factor))
	}
	if transposed {
		update = oriented.T()
	}
	tensor.ScaleInPlace(update, float32(alpha))
	if prevNorm != nil {
		*prevNorm = optim.LimitNormGrowth(update, *prevNorm, gamma)
	}
	return update
}

func unfusedChannelScales(num, den *tensor.Matrix) []float64 {
	nn, dn := num.ColNorms(), den.ColNorms()
	out := make([]float64, len(nn))
	for j := range out {
		if dn[j] > 1e-12 {
			out[j] = nn[j] / dn[j]
		}
	}
	return out
}

func unfusedTensorScale(num, den *tensor.Matrix) float64 {
	d := den.Norm()
	if d < 1e-12 {
		return 0
	}
	return num.Norm() / d
}

// referenceAPOLLO is APOLLO over the same engine with the unfused rule: it
// returns its update as a direction, which the engine applies with
// DecayAndApply.
func referenceAPOLLO(h optim.Hyper, cfg Config) *optim.Projected {
	cfg = cfg.withDefaults()
	rule := func(e *optim.Projected, st *optim.ProjState, p *nn.Param, grad *tensor.Matrix, _ *optim.Workspace) *tensor.Matrix {
		r := tensor.NewMatrix(cfg.Rank, grad.Cols)
		st.ProjectInto(r, grad)
		rTilde := tensor.NewMatrix(r.Rows, r.Cols)
		e.Moments(st, rTilde, r)
		var channel []float64
		var factor float64
		if cfg.Granularity == Channel {
			channel = unfusedChannelScales(rTilde, r)
		} else {
			factor = unfusedTensorScale(rTilde, r)
		}
		update := unfusedUpdate(p, channel, factor, cfg.Scale, 0, nil)
		if !cfg.DisableNL {
			st.LimitNormGrowth(update, DefaultGamma)
		}
		return update
	}
	return optim.NewProjected("reference", h, optim.LowRankConfig{
		Rank: cfg.Rank, Scale: cfg.Scale, UpdateGap: cfg.UpdateGap,
		Projection: cfg.Projection, Seed: cfg.Seed,
	}, true, rule)
}

// oracleShapes: rows < cols, rows > cols, square, and both orientations at
// len ≥ 1<<16 with a row length that does not divide the 8192-element chunk
// grid, so the limiter's norm crosses chunk boundaries mid-row.
var oracleShapes = []struct {
	name       string
	rows, cols int
}{
	{"wide", 8, 20},
	{"tall", 20, 8},
	{"square", 12, 12},
	{"wide-chunked", 96, 700},
	{"tall-chunked", 700, 96},
}

// oracleGrad fills step's gradient. The schedule visits, in order: a first
// step (limiter memory 0); a gradient confined to the first row and column,
// so the full gradient after it is a norm jump the limiter clamps; an
// all-zero channel of the m×n orientation (factor-0 branch); and, last
// because they poison the state, NaN and ±Inf entries followed by one more
// ordinary step.
func oracleGrad(p *nn.Param, rng *tensor.RNG, step int) {
	g := p.Grad
	for i := range g.Data {
		g.Data[i] = rng.NormFloat32()
		if step == 1 && i/g.Cols != 0 && i%g.Cols != 0 {
			g.Data[i] = 0
		}
	}
	switch step {
	case 3: // channel 1 of the orientation: column 1, or row 1 when rows > cols
		for k := 0; k < min(g.Rows, g.Cols); k++ {
			if g.Rows > g.Cols {
				g.Set(1, k, 0)
			} else {
				g.Set(k, 1, 0)
			}
		}
	case 5:
		g.Data[5] = float32(math.NaN())
		g.Data[len(g.Data)/2] = float32(math.Inf(1))
		g.Data[len(g.Data)-3] = float32(math.Inf(-1))
	}
}

const oracleSteps = 7

func TestFusedAPOLLOMatchesUnfusedReference(t *testing.T) {
	var fired, passed, zeroChannels int
	for _, shape := range oracleShapes {
		for _, gran := range []Granularity{Channel, Tensor} {
			for _, wd := range []float64{0, 0.1} {
				for _, disableNL := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/wd=%v/noNL=%v", shape.name, gran, wd, disableNL)
					h := optim.Hyper{LR: 0.01, WeightDecay: wd}
					cfg := Config{Rank: 4, Granularity: gran, UpdateGap: 3, DisableNL: disableNL, Seed: 77}
					if gran == Channel {
						cfg.Scale = 1.5 // a factor the α multiply actually rounds on
					}
					fused, ref := New(h, cfg), referenceAPOLLO(h, cfg)
					pf := matParam(t, "w", shape.rows, shape.cols, 5)
					pr := matParam(t, "w", shape.rows, shape.cols, 5)
					var step int
					fused.ScalingProbe = func(_ string, s []float64) {
						if step == 3 && gran == Channel && s[1] == 0 {
							zeroChannels++
						}
					}
					rng := tensor.NewRNG(6)
					prev := 0.0
					for step = 0; step < oracleSteps; step++ {
						oracleGrad(pf, rng, step)
						pr.Grad.CopyFrom(pf.Grad)
						fused.Step([]*nn.Param{pf})
						ref.Step([]*nn.Param{pr})

						if !sameFloats(pf.W.Data, pr.W.Data) {
							t.Fatalf("%s: weights differ from the unfused reference at step %d", name, step)
						}
						sf, _ := fused.CaptureParam(pf)
						sr, _ := ref.CaptureParam(pr)
						for i := range sf.Scalars {
							same := sf.Scalars[i] == sr.Scalars[i]
							if i == 2 { // limiter memory
								same = sameFloat64(optim.F64From(sf.Scalars[i]), optim.F64From(sr.Scalars[i]))
							}
							if !same {
								t.Fatalf("%s: state scalar %d differs at step %d: %#x vs %#x", name, i, step, sf.Scalars[i], sr.Scalars[i])
							}
						}
						for i := range sf.Whole {
							if !sameFloats(sf.Whole[i].Data, sr.Whole[i].Data) {
								t.Fatalf("%s: moment matrix %d differs at step %d", name, i, step)
							}
						}
						now := optim.F64From(sf.Scalars[2])
						if !disableNL && prev > 0 {
							if now == DefaultGamma*prev {
								fired++
							} else {
								passed++
							}
						}
						prev = now
					}
				}
			}
		}
	}
	// The schedule must have reached the branches it was written for.
	if fired == 0 || passed == 0 {
		t.Errorf("limiter fired %d times and passed %d times; the oracle needs both", fired, passed)
	}
	if want := len(oracleShapes) * 2 * 2; zeroChannels != want {
		t.Errorf("zero-gradient channel produced a zero factor in %d runs, want %d", zeroChannels, want)
	}
}

// TestApplyScaledGradMatchesUnfusedComposition drives the fused apply
// directly, with factors and limiter memory chosen freely rather than as
// APOLLO derives them: every factor distinct, limiter memory below, at and
// above the update's norm.
func TestApplyScaledGradMatchesUnfusedComposition(t *testing.T) {
	for _, shape := range oracleShapes {
		for _, wd := range []float64{0, 0.05} {
			for _, prev := range []float64{-1, 0, 1e-3, 1e6} { // -1: limiter off
				rng := tensor.NewRNG(9)
				pf := matParam(t, "w", shape.rows, shape.cols, 8)
				pr := matParam(t, "w", shape.rows, shape.cols, 8)
				fillGrad(pf, rng, 1)
				pr.Grad.CopyFrom(pf.Grad)
				channel := make([]float64, max(shape.rows, shape.cols))
				factors := make([]float32, len(channel))
				for j := range channel {
					channel[j] = 0.3 + rng.Float64()
					factors[j] = float32(channel[j])
				}
				const alpha, lr, gamma = 1.7, 0.02, 1.01

				memF, memR := prev, prev
				var ptrF, ptrR *float64
				if prev >= 0 {
					ptrF, ptrR = &memF, &memR
				}
				optim.ApplyScaledGrad(pf, factors, float32(alpha), lr, wd, gamma, ptrF)
				optim.DecayAndApply(pr, unfusedUpdate(pr, channel, 0, alpha, gamma, ptrR), lr, wd)

				name := fmt.Sprintf("%s/wd=%v/prev=%v", shape.name, wd, prev)
				if !sameFloats(pf.W.Data, pr.W.Data) {
					t.Errorf("%s: weights differ from the unfused composition", name)
				}
				if !sameFloat64(memF, memR) {
					t.Errorf("%s: limiter memory %v, unfused composition %v", name, memF, memR)
				}
			}
		}
	}
}

// referenceStructured is StructuredAdamW.Step as it was before it shared the
// fused apply, for one matrix parameter.
type referenceStructured struct {
	m, v     *tensor.Matrix
	t        int
	prevNorm float64
}

func (st *referenceStructured) step(p *nn.Param, h optim.Hyper, gran Granularity, gamma float64) {
	if st.m == nil {
		st.m, st.v = tensor.NewMatrix(p.W.Rows, p.W.Cols), tensor.NewMatrix(p.W.Rows, p.W.Cols)
	}
	st.t++
	gt := tensor.NewMatrix(p.W.Rows, p.W.Cols)
	optim.AdamDirection(st.m, st.v, gt, p.Grad, h, st.t)
	oriented, gtOriented := p.Grad, gt
	if p.W.Rows > p.W.Cols {
		oriented, gtOriented = p.Grad.T(), gt.T()
	}
	var channel []float64
	var factor float64
	if gran == Channel {
		channel = unfusedChannelScales(gtOriented, oriented)
	} else {
		factor = unfusedTensorScale(gtOriented, oriented)
	}
	var prevNorm *float64
	if gamma > 0 {
		prevNorm = &st.prevNorm
	}
	// The old Step had no α; ScaleInPlace by 1 is exact.
	optim.DecayAndApply(p, unfusedUpdate(p, channel, factor, 1, gamma, prevNorm), h.LR, h.WeightDecay)
}

func TestStructuredAdamWMatchesUnfusedReference(t *testing.T) {
	for _, shape := range oracleShapes {
		for _, gran := range []Granularity{Channel, Tensor} {
			for _, gamma := range []float64{DefaultGamma, 0} {
				name := fmt.Sprintf("%s/%s/gamma=%v", shape.name, gran, gamma)
				h := optim.Hyper{LR: 0.01, WeightDecay: 0.1}.WithDefaults()
				fused := NewStructuredAdamW(h, gran)
				fused.Gamma = gamma
				var ref referenceStructured
				pf := matParam(t, "w", shape.rows, shape.cols, 15)
				pr := matParam(t, "w", shape.rows, shape.cols, 15)
				rng := tensor.NewRNG(16)
				for step := 0; step < oracleSteps; step++ {
					oracleGrad(pf, rng, step)
					pr.Grad.CopyFrom(pf.Grad)
					fused.Step([]*nn.Param{pf})
					ref.step(pr, h, gran, gamma)

					if !sameFloats(pf.W.Data, pr.W.Data) {
						t.Fatalf("%s: weights differ from the unfused reference at step %d", name, step)
					}
					st, _ := fused.CaptureParam(pf)
					if !sameFloats(st.RowMats[0].Data, ref.m.Data) || !sameFloats(st.RowMats[1].Data, ref.v.Data) {
						t.Fatalf("%s: moments differ at step %d", name, step)
					}
					if got := optim.F64From(st.Scalars[1]); !sameFloat64(got, ref.prevNorm) {
						t.Fatalf("%s: limiter memory %v, reference %v at step %d", name, got, ref.prevNorm, step)
					}
				}
			}
		}
	}
}

// TestProjectedStepSteadyStateAllocs pins what a steady-state step of the
// projected family costs the heap: once every worker's Workspace has seen
// the shapes, nothing proportional to a matrix is allocated, in any rule.
// What is left belongs to the pool fan-out Step makes over its parameters
// (the shapes below are too small for the kernels inside a parameter to fan
// out themselves): its closures and shared record, a fixed handful per step.
// The limits come from the list, not from counting those: fewer bytes per
// step than ONE r×n matrix of the smallest projected parameter — a Clone or
// T() of any gradient, update or rank-space matrix in any rule is at least
// that — and fewer objects than the list has parameters, i.e. nothing per
// parameter.
func TestProjectedStepSteadyStateAllocs(t *testing.T) {
	defer runtime.SetWorkers(runtime.Workers())
	const dim, hidden, rank, gap = 32, 96, 4, 50
	h := optim.Hyper{LR: 0.01, WeightDecay: 0.1}
	low := optim.LowRankConfig{Rank: rank, UpdateGap: gap, Seed: 3}
	cases := []struct {
		opt  optim.Optimizer
		rank int
	}{
		{New(h, Config{Rank: rank, UpdateGap: gap, Seed: 3}), rank},
		{NewMini(h), 1},
		{optim.NewGaLore(h, low), rank}, // random projection is LowRankConfig's zero value: GaLore-RP
		{optim.NewFira(h, low), rank},
		{optim.NewFlora(h, low), rank},
	}
	for _, width := range []int{1, 2} {
		runtime.SetWorkers(width)
		for _, c := range cases {
			rng := tensor.NewRNG(4)
			var ps []*nn.Param
			for layer := 0; layer < 2; layer++ {
				for _, shape := range [][2]int{{dim, dim}, {dim, dim}, {hidden, dim}, {hidden, dim}, {dim, hidden}} {
					p := matParam(t, fmt.Sprintf("l%d.%dx%d", layer, shape[0], shape[1]), shape[0], shape[1], uint64(len(ps)))
					ps = append(ps, p)
				}
				ps = append(ps, nn.NewParam("norm", nn.KindVector, tensor.NewMatrixRand(1, dim, 0.1, rng)))
			}
			for _, p := range ps {
				fillGrad(p, rng, 1)
			}
			// AllocsPerRun measures at GOMAXPROCS(1), where the pool's worker
			// runs only when it gets in at a preemption, steps late, and
			// claims whichever parameter is next. Step grows every worker's
			// Workspace alike after its fan-out, so one step shows them all
			// every shape and the second — AllocsPerRun's warm-up call — is
			// already steady, whoever claims what.
			c.opt.Step(ps)

			// Bytes are read between the counted steps themselves: the
			// GOMAXPROCS switches around them may start an OS thread, whose
			// runtime structures (≈ 5 KB) are the scheduler's, not a step's.
			const runs = 10 // with the warm-up calls, still short of a refresh
			var first, last goruntime.MemStats
			calls := 0
			objects := testing.AllocsPerRun(runs, func() {
				if calls == 1 {
					goruntime.ReadMemStats(&first)
				}
				c.opt.Step(ps)
				if calls++; calls == runs+1 {
					goruntime.ReadMemStats(&last)
				}
			})
			bytes := float64(last.TotalAlloc-first.TotalAlloc) / runs

			if objects >= float64(len(ps)) {
				t.Errorf("%s at width %d: steady-state step allocates %v objects for %d parameters", c.opt.Name(), width, objects, len(ps))
			}
			if limit := float64(4 * c.rank * dim); bytes >= limit {
				t.Errorf("%s at width %d: steady-state step allocates %.0f bytes, want under %.0f (one %d×%d matrix)", c.opt.Name(), width, bytes, limit, c.rank, dim)
			}
			t.Logf("%s at width %d: %v objects, %.0f bytes per step", c.opt.Name(), width, objects, bytes)
		}
	}
}
