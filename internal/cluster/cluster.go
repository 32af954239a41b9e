// Package cluster models the system side of the paper: an A100-80GB device
// (HBM capacity, BF16 FLOPs, NVLink), DDP all-reduce, per-optimizer step
// overheads including GaLore's SVD spikes, micro-batch feasibility from the
// memory model, and end-to-end wall-clock simulation. It regenerates the
// throughput bars of Fig. 1 (right), the time axis of Fig. 2, the Fig. 9
// throughput timeline and the Section 5.3 feasibility claims.
//
// The paper's numbers come from real hardware; this simulator reproduces
// their *mechanism* — memory arithmetic decides the feasible batch size,
// batch size and SVD amortization decide throughput — with constants
// calibrated to the figures the paper reports (10-minute 7B SVD, ~0.17 s
// AdamW 7B step, ~3× APOLLO speedup at 4× batch).
package cluster

import (
	"fmt"
	"math"

	"apollo/internal/linalg"
	"apollo/internal/memmodel"
)

// Device describes one accelerator.
type Device struct {
	Name      string
	MemBytes  float64 // HBM capacity
	PeakFLOPS float64 // dense BF16 peak
	MFUMax    float64 // best-case model FLOPs utilization at large batch
	// MFUHalfBatch is the micro-batch at which utilization reaches half of
	// MFUMax — small batches leave the GPU memory-bound, the effect that
	// makes APOLLO's larger batches pay off (Section 5.3).
	MFUHalfBatch float64
	HBMBW        float64 // bytes/s for optimizer (memory-bound) passes
	LinkBW       float64 // effective per-GPU all-reduce bandwidth, bytes/s
	// SVDFLOPS is the effective throughput of dense SVD on this device —
	// SVD parallelizes poorly on GPUs; calibrated so a full LLaMA-7B
	// projection refresh costs ≈10 minutes as reported in Section 5.4.
	SVDFLOPS float64
	// LaunchOverhead is the fixed per-micro-step host/kernel overhead.
	LaunchOverhead float64
}

// A100_80G returns the calibrated device used across the paper.
func A100_80G() Device {
	return Device{
		Name:           "A100-80GB",
		MemBytes:       80e9,
		PeakFLOPS:      312e12,
		MFUMax:         0.55,
		MFUHalfBatch:   8,
		HBMBW:          1.7e12,
		LinkBW:         250e9,
		SVDFLOPS:       2.2e11,
		LaunchOverhead: 3e-3,
	}
}

// RTX4090 is a 24 GB consumer card used for the low-end-GPU narrative
// (Q-APOLLO-Mini trains 7B under 12 GB, i.e. it even fits here).
func RTX4090() Device {
	return Device{
		Name:           "RTX4090-24GB",
		MemBytes:       24e9,
		PeakFLOPS:      165e12,
		MFUMax:         0.45,
		MFUHalfBatch:   4,
		HBMBW:          1.0e12,
		LinkBW:         30e9,
		SVDFLOPS:       1.2e11,
		LaunchOverhead: 4e-3,
	}
}

// OptimizerProfile captures how an optimizer loads the system.
type OptimizerProfile struct {
	Name string
	// Method/Rank feed the memory model.
	Method memmodel.Method
	Rank   int // 0 = config default rank
	// StateBytesTouched multiplies parameter count to estimate the
	// memory-bound optimizer pass (read W,G + read/write states).
	StateBytesTouched float64
	// ProjectionFlopsPerParam models per-step projection matmuls
	// (GaLore/Fira project and lift every step; APOLLO only projects).
	ProjectionFlopsPerParam float64
	// SVDEvery is the projection refresh period via SVD (0 = never; the
	// cost is paid on refresh steps and shows up as Fig. 9's spikes).
	SVDEvery int
	// FullRankResidual marks Fira's extra full-rank residual pass.
	FullRankResidual bool
}

// Profiles for the methods the system experiments compare.
func ProfileAdamW() OptimizerProfile {
	return OptimizerProfile{
		Name: "AdamW", Method: memmodel.MethodAdamW,
		StateBytesTouched: 4 * 6, // read W,G,M,V; write W,M,V ≈ 6 fp32 passes
	}
}

func ProfileGaLore(rank, svdEvery int) OptimizerProfile {
	return OptimizerProfile{
		Name: "GaLore", Method: memmodel.MethodGaLore, Rank: rank,
		StateBytesTouched:       4 * 3,
		ProjectionFlopsPerParam: 4 * float64(rank), // project + lift, 2·2·r flops/param
		SVDEvery:                svdEvery,
	}
}

func ProfileFira(rank, svdEvery int) OptimizerProfile {
	p := ProfileGaLore(rank, svdEvery)
	p.Name = "Fira"
	p.Method = memmodel.MethodFira
	p.FullRankResidual = true
	p.StateBytesTouched += 4 * 2
	return p
}

func ProfileAPOLLO(rank int) OptimizerProfile {
	return OptimizerProfile{
		Name: "APOLLO", Method: memmodel.MethodAPOLLO, Rank: rank,
		StateBytesTouched:       4 * 3,
		ProjectionFlopsPerParam: 2 * float64(rank), // project only; no lift
	}
}

func ProfileAPOLLOMini() OptimizerProfile {
	return OptimizerProfile{
		Name: "APOLLO-Mini", Method: memmodel.MethodAPOLLOMini, Rank: 1,
		StateBytesTouched:       4 * 3,
		ProjectionFlopsPerParam: 2,
	}
}

// Workload is one training configuration on a cluster.
type Workload struct {
	Config      memmodel.LLaMAConfig
	Dev         Device
	World       int // number of GPUs (DDP)
	SeqLen      int
	GlobalBatch int // sequences per optimizer step across the cluster
	Ckpt        bool
	LayerWise   bool
	Int8Weights bool
	// ZeroShard partitions optimizer states ZeRO-style across the World
	// replicas: per-GPU state memory and the optimizer pass drop to ~1/World,
	// at the price of an extra post-step weight broadcast (each replica must
	// receive the (World−1)/World fraction of the weights it does not own).
	ZeroShard bool
}

// StepBreakdown decomposes one optimizer-step wall time (seconds).
type StepBreakdown struct {
	Compute   float64 // forward+backward across all micro-steps
	Optimizer float64 // optimizer math (memory-bound) + projections
	Comm      float64 // DDP all-reduce
	SVD       float64 // amortized projection-refresh cost
}

// Total sums the breakdown.
func (s StepBreakdown) Total() float64 { return s.Compute + s.Optimizer + s.Comm + s.SVD }

// MaxMicroBatch returns the largest per-GPU micro-batch that fits, or 0 if
// even batch 1 OOMs.
func MaxMicroBatch(w Workload, prof OptimizerProfile) int {
	best := 0
	for b := 1; b <= 512; b *= 2 {
		plan := memmodel.Plan{
			Config: w.Config, Method: prof.Method, Rank: prof.Rank,
			SeqLen: w.SeqLen, MicroBatch: b,
			Int8Weights: w.Int8Weights, LayerWiseGrad: w.LayerWise, ActivationCkpt: w.Ckpt,
		}
		if w.ZeroShard {
			plan.ZeroWorld = w.World
		}
		if memmodel.Compute(plan).Total() <= w.Dev.MemBytes {
			best = b
		} else {
			break
		}
	}
	return best
}

// mfu returns the utilization at a given micro-batch. The saturating
// power-law is calibrated so that growing the 7B micro-batch from 4 to 16
// yields the ≈3× throughput the paper measures (Fig. 1 right): small
// batches leave the device memory-bound far below its roofline.
func mfu(d Device, micro int) float64 {
	b := float64(micro)
	frac := b / (b + d.MFUHalfBatch)
	return d.MFUMax * math.Pow(frac, 1.5)
}

// svdRefreshSeconds returns the cost of one full projection refresh for the
// model (an SVD per projectable matrix).
func svdRefreshSeconds(cfg memmodel.LLaMAConfig, d Device) float64 {
	var flops float64
	for _, s := range cfg.Shapes() {
		if s.Projectable {
			flops += linalg.SVDFlops(s.Rows, s.Cols)
		}
	}
	return flops / d.SVDFLOPS
}

// StepTime computes the wall time of one optimizer step at the given
// micro-batch.
func StepTime(w Workload, prof OptimizerProfile, micro int) StepBreakdown {
	if micro <= 0 {
		return StepBreakdown{Compute: math.Inf(1)}
	}
	params := float64(w.Config.NumParams())
	microSteps := math.Ceil(float64(w.GlobalBatch) / float64(w.World*micro))
	tokensPerMicro := float64(micro * w.SeqLen)

	// Forward+backward ≈ 6·P flops per token (+33% recompute with ckpt).
	flopsPerToken := 6 * params
	if w.Ckpt {
		flopsPerToken *= 4.0 / 3.0
	}
	eff := w.Dev.PeakFLOPS * mfu(w.Dev, micro)
	compute := microSteps * (tokensPerMicro*flopsPerToken/eff + w.Dev.LaunchOverhead)

	// Optimizer pass: memory-bound over weights+grads+states, plus the
	// per-step projection matmuls. Under ZeRO sharding each replica steps
	// only its ~1/World of the parameters.
	optBytes := params * prof.StateBytesTouched
	opt := optBytes / w.Dev.HBMBW
	if prof.ProjectionFlopsPerParam > 0 {
		opt += params * prof.ProjectionFlopsPerParam / (w.Dev.PeakFLOPS * 0.3)
	}
	if prof.FullRankResidual {
		opt += params * 4 / w.Dev.HBMBW
	}
	if w.ZeroShard && w.World > 1 {
		opt /= float64(w.World)
	}

	// Ring all-reduce of BF16 gradients once per optimizer step; with
	// sharded states, also the post-step weight broadcast — every replica
	// receives the (World−1)/World fraction of the weights it doesn't own.
	var comm float64
	if w.World > 1 {
		gradBytes := params * memmodel.BytesBF16
		comm = 2 * gradBytes * float64(w.World-1) / float64(w.World) / w.Dev.LinkBW
		if w.ZeroShard {
			wtBytes := params * memmodel.BytesBF16
			comm += wtBytes * float64(w.World-1) / float64(w.World) / w.Dev.LinkBW
		}
	}

	var svd float64
	if prof.SVDEvery > 0 {
		svd = svdRefreshSeconds(w.Config, w.Dev) / float64(prof.SVDEvery)
	}
	return StepBreakdown{Compute: compute, Optimizer: opt, Comm: comm, SVD: svd}
}

// Throughput returns end-to-end training tokens/second at the feasible
// micro-batch (0 if the model does not fit at all).
func Throughput(w Workload, prof OptimizerProfile) (tokensPerSec float64, micro int) {
	micro = MaxMicroBatch(w, prof)
	if micro == 0 {
		return 0, 0
	}
	st := StepTime(w, prof, micro)
	tokens := float64(w.GlobalBatch * w.SeqLen)
	return tokens / st.Total(), micro
}

// TimePoint is one entry of a simulated training timeline.
type TimePoint struct {
	Step        int
	WallSeconds float64 // cumulative
	StepSeconds float64 // this step (includes any SVD spike)
	TokensPerS  float64 // instantaneous throughput
}

// SimulateTimeline produces a per-step wall-clock trace with explicit SVD
// spikes at refresh steps (Fig. 9) instead of amortizing them.
func SimulateTimeline(w Workload, prof OptimizerProfile, steps int) []TimePoint {
	micro := MaxMicroBatch(w, prof)
	if micro == 0 {
		return nil
	}
	base := StepTime(w, prof, micro)
	base.SVD = 0
	perStep := base.Total()
	refresh := 0.0
	if prof.SVDEvery > 0 {
		refresh = svdRefreshSeconds(w.Config, w.Dev)
	}
	tokens := float64(w.GlobalBatch * w.SeqLen)
	out := make([]TimePoint, steps)
	wall := 0.0
	for i := 0; i < steps; i++ {
		t := perStep
		if prof.SVDEvery > 0 && i%prof.SVDEvery == 0 {
			t += refresh
		}
		wall += t
		out[i] = TimePoint{Step: i, WallSeconds: wall, StepSeconds: t, TokensPerS: tokens / t}
	}
	return out
}

// StepsWithinBudget returns how many optimizer steps fit in a wall-clock
// budget (Fig. 2's half-month horizontal line).
func StepsWithinBudget(w Workload, prof OptimizerProfile, budgetSeconds float64) int {
	micro := MaxMicroBatch(w, prof)
	if micro == 0 {
		return 0
	}
	st := StepTime(w, prof, micro)
	if st.Total() <= 0 {
		return 0
	}
	return int(budgetSeconds / st.Total())
}

// Fits reports whether the workload fits in device memory at micro-batch 1.
func Fits(w Workload, prof OptimizerProfile) bool {
	return MaxMicroBatch(w, prof) >= 1
}

// Describe renders a human-readable summary for the CLI tools.
func Describe(w Workload, prof OptimizerProfile) string {
	tps, micro := Throughput(w, prof)
	if micro == 0 {
		return fmt.Sprintf("%-12s OOM (does not fit at micro-batch 1)", prof.Name)
	}
	st := StepTime(w, prof, micro)
	return fmt.Sprintf("%-12s micro=%-3d step=%6.2fs (compute %.2f, opt %.3f, comm %.3f, svd %.3f) → %.0f tok/s",
		prof.Name, micro, st.Total(), st.Compute, st.Optimizer, st.Comm, st.SVD, tps)
}
