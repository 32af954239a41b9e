package runlog

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"apollo/internal/obs"
)

// DiffOptions tunes run alignment and the pass/fail gates.
type DiffOptions struct {
	// LossTol is the largest |Δloss| tolerated at any aligned step before
	// the diff counts as a loss-curve divergence. 0 demands bit-equality —
	// the right gate for identical-seed reruns of a deterministic trainer.
	LossTol float64
	// TimeTol is the tolerated fractional step-wall regression: the diff
	// fails when B's p50 step wall exceeds A's by more than this fraction
	// (0.25 = 25% slower). <= 0 disables the time gate — wall times from
	// different hosts are not comparable.
	TimeTol float64
	// MemTol is the tolerated fractional peak-memory regression: the diff
	// fails when B's peak ledger total (the mem events' TotalBytes, the
	// shape-derived component sum — host-independent, unlike heap or RSS)
	// exceeds A's by more than this fraction. One-directional: B using less
	// memory than A never fails. <= 0 disables the gate; so does a baseline
	// with no memory timeline (pre-memprof baselines keep passing).
	MemTol float64
	// Checkpoints is how many evenly spaced loss checkpoints to report
	// (default 10; the final aligned step is always included).
	Checkpoints int
}

// CheckpointRow is one aligned loss comparison point.
type CheckpointRow struct {
	Step  int     `json:"step"`
	LossA float64 `json:"loss_a"`
	LossB float64 `json:"loss_b"`
	Delta float64 `json:"delta"` // B - A
}

// PhaseRow is one phase's total-seconds comparison.
type PhaseRow struct {
	Name     string  `json:"name"`
	SecondsA float64 `json:"seconds_a"`
	SecondsB float64 `json:"seconds_b"`
	FracA    float64 `json:"frac_a"` // share of A's summed phase time
	FracB    float64 `json:"frac_b"`
}

// DiffReport aligns two runs step-by-step. A is the reference (baseline),
// B the candidate.
type DiffReport struct {
	IDA, IDB string
	Steps    int // aligned steps (min of the two series)
	ExtraA   int // steps only A has beyond the aligned range
	ExtraB   int

	// FirstDivergence is the first aligned step whose losses differ bitwise
	// (-1: the aligned range is identical).
	FirstDivergence int
	MaxLossDelta    float64 // max |B-A| over aligned steps
	MaxLossStep     int

	Checkpoints []CheckpointRow
	Phases      []PhaseRow

	// Step-wall quantiles (seconds), rank-exact over each run's own steps.
	WallP50A, WallP95A float64
	WallP50B, WallP95B float64

	// Peak ledger totals (the mem events' TotalBytes); 0 when a run has no
	// memory timeline.
	MemPeakA, MemPeakB int64

	LossDiverged  bool // |Δ| > LossTol somewhere in the aligned range
	TimeRegressed bool // p50B > p50A × (1 + TimeTol), when the gate is armed
	MemRegressed  bool // peakB > peakA × (1 + MemTol), when the gate is armed
	LossTol       float64
	TimeTol       float64
	MemTol        float64
}

// Failed reports whether any gate tripped — or nothing was compared: with
// zero aligned steps every gate is vacuously green, which is exactly what an
// empty or missing event stream looks like, so it fails.
func (r *DiffReport) Failed() bool {
	return r.Steps == 0 || r.LossDiverged || r.TimeRegressed || r.MemRegressed
}

// Diff aligns two loaded runs: per-step loss deltas with first-divergence
// step, loss checkpoints, phase-time breakdown deltas, and step-wall
// p50/p95. Steps are aligned by series position (both loops emit exactly
// one StepEvent per step, 1-based and sequential).
func Diff(a, b *RunData, opt DiffOptions) *DiffReport {
	if opt.Checkpoints <= 0 {
		opt.Checkpoints = 10
	}
	n := min(len(a.Steps), len(b.Steps))
	r := &DiffReport{
		IDA: a.Manifest.ID, IDB: b.Manifest.ID,
		Steps: n, ExtraA: len(a.Steps) - n, ExtraB: len(b.Steps) - n,
		FirstDivergence: -1,
		LossTol:         opt.LossTol, TimeTol: opt.TimeTol, MemTol: opt.MemTol,
	}
	for i := 0; i < n; i++ {
		la, lb := a.Steps[i].Loss, b.Steps[i].Loss
		if r.FirstDivergence < 0 && (la != lb) { //apollo:exactfloat first divergence is defined as the first bitwise difference
			r.FirstDivergence = a.Steps[i].Step
		}
		d := math.Abs(lb - la)
		// NaN in either run is a divergence wherever it appears.
		if math.IsNaN(la) != math.IsNaN(lb) {
			d = math.Inf(1)
			if r.FirstDivergence < 0 {
				r.FirstDivergence = a.Steps[i].Step
			}
		}
		if d > r.MaxLossDelta {
			r.MaxLossDelta = d
			r.MaxLossStep = a.Steps[i].Step
		}
	}
	r.LossDiverged = r.MaxLossDelta > opt.LossTol

	// Evenly spaced checkpoints over the aligned range, final step included.
	if n > 0 {
		span := n / opt.Checkpoints
		if span < 1 {
			span = 1
		}
		for i := span - 1; i < n; i += span {
			r.Checkpoints = append(r.Checkpoints, checkpointAt(a, b, i))
		}
		if last := r.Checkpoints[len(r.Checkpoints)-1]; last.Step != a.Steps[n-1].Step {
			r.Checkpoints = append(r.Checkpoints, checkpointAt(a, b, n-1))
		}
	}

	r.Phases = phaseRows(a, b)
	r.WallP50A, r.WallP95A = wallQuantiles(a.Steps)
	r.WallP50B, r.WallP95B = wallQuantiles(b.Steps)
	if opt.TimeTol > 0 && r.WallP50A > 0 {
		r.TimeRegressed = r.WallP50B > r.WallP50A*(1+opt.TimeTol)
	}
	if pa, ok := a.MemPeak(); ok {
		r.MemPeakA = pa.TotalBytes
	}
	if pb, ok := b.MemPeak(); ok {
		r.MemPeakB = pb.TotalBytes
	}
	if opt.MemTol > 0 && r.MemPeakA > 0 {
		r.MemRegressed = float64(r.MemPeakB) > float64(r.MemPeakA)*(1+opt.MemTol)
	}
	return r
}

func checkpointAt(a, b *RunData, i int) CheckpointRow {
	return CheckpointRow{
		Step:  a.Steps[i].Step,
		LossA: a.Steps[i].Loss,
		LossB: b.Steps[i].Loss,
		Delta: b.Steps[i].Loss - a.Steps[i].Loss,
	}
}

// phaseRows sums each run's per-step phase seconds and pairs them in
// canonical phase order (phases neither run hit are omitted).
func phaseRows(a, b *RunData) []PhaseRow {
	sum := func(rd *RunData) (map[string]float64, float64) {
		totals := map[string]float64{}
		var all float64
		for _, ev := range rd.Steps {
			for name, s := range ev.Phases {
				totals[name] += s
				all += s
			}
		}
		return totals, all
	}
	ta, allA := sum(a)
	tb, allB := sum(b)
	var rows []PhaseRow
	for _, name := range obs.PhaseNames() {
		sa, oka := ta[name]
		sb, okb := tb[name]
		if !oka && !okb {
			continue
		}
		row := PhaseRow{Name: name, SecondsA: sa, SecondsB: sb}
		if allA > 0 {
			row.FracA = sa / allA
		}
		if allB > 0 {
			row.FracB = sb / allB
		}
		rows = append(rows, row)
	}
	return rows
}

// wallQuantiles returns rank-exact p50/p95 of the per-step wall seconds
// (the obs.Histogram convention: the rank-⌈q·n⌉ order statistic).
func wallQuantiles(steps []obs.StepEvent) (p50, p95 float64) {
	if len(steps) == 0 {
		return 0, 0
	}
	walls := make([]float64, len(steps))
	for i, ev := range steps {
		walls[i] = ev.WallSeconds
	}
	sort.Float64s(walls)
	at := func(q float64) float64 {
		rank := int(math.Ceil(q * float64(len(walls))))
		if rank < 1 {
			rank = 1
		}
		if rank > len(walls) {
			rank = len(walls)
		}
		return walls[rank-1]
	}
	return at(0.50), at(0.95)
}

// Write renders the report for terminals and CI logs.
func (r *DiffReport) Write(w io.Writer) {
	fmt.Fprintf(w, "diff %s (A) vs %s (B)\n", r.IDA, r.IDB)
	fmt.Fprintf(w, "  aligned steps     %d", r.Steps)
	if r.ExtraA > 0 || r.ExtraB > 0 {
		fmt.Fprintf(w, "  (+%d only in A, +%d only in B)", r.ExtraA, r.ExtraB)
	}
	fmt.Fprintln(w)
	switch {
	case r.Steps == 0:
		fmt.Fprintf(w, "  loss curve        not compared\n")
	case r.FirstDivergence < 0:
		fmt.Fprintf(w, "  loss curve        identical (bitwise) over the aligned range\n")
	default:
		fmt.Fprintf(w, "  first divergence  step %d\n", r.FirstDivergence)
		fmt.Fprintf(w, "  max |Δloss|       %.6g at step %d (tol %.6g)\n", r.MaxLossDelta, r.MaxLossStep, r.LossTol)
	}
	if len(r.Checkpoints) > 0 {
		fmt.Fprintf(w, "  %-8s %12s %12s %12s\n", "step", "loss A", "loss B", "Δ (B-A)")
		for _, c := range r.Checkpoints {
			fmt.Fprintf(w, "  %-8d %12.6f %12.6f %+12.3e\n", c.Step, c.LossA, c.LossB, c.Delta)
		}
	}
	if len(r.Phases) > 0 {
		fmt.Fprintf(w, "  %-10s %10s %10s %8s %8s\n", "phase", "A (s)", "B (s)", "A %", "B %")
		for _, p := range r.Phases {
			fmt.Fprintf(w, "  %-10s %10.3f %10.3f %7.1f%% %7.1f%%\n",
				p.Name, p.SecondsA, p.SecondsB, 100*p.FracA, 100*p.FracB)
		}
	}
	fmt.Fprintf(w, "  step wall p50     A %.4fs  B %.4fs\n", r.WallP50A, r.WallP50B)
	fmt.Fprintf(w, "  step wall p95     A %.4fs  B %.4fs\n", r.WallP95A, r.WallP95B)
	if r.MemPeakA > 0 || r.MemPeakB > 0 {
		fmt.Fprintf(w, "  mem peak (ledger) A %s  B %s", obs.FormatBytes(r.MemPeakA), obs.FormatBytes(r.MemPeakB))
		if r.MemTol > 0 && r.MemPeakA > 0 {
			fmt.Fprintf(w, "  (gate: B ≤ A × %.2f)", 1+r.MemTol)
		}
		fmt.Fprintln(w)
	}
	var fails []string
	if r.Steps == 0 {
		fails = append(fails, "no aligned steps")
	}
	if r.LossDiverged {
		fails = append(fails, fmt.Sprintf("loss divergence beyond tol %.6g", r.LossTol))
	}
	if r.TimeRegressed {
		fails = append(fails, fmt.Sprintf("p50 step wall regressed beyond %.0f%%", 100*r.TimeTol))
	}
	if r.MemRegressed {
		fails = append(fails, fmt.Sprintf("peak memory regressed beyond %.0f%%", 100*r.MemTol))
	}
	if len(fails) > 0 {
		fmt.Fprintf(w, "  verdict: FAIL (%s)\n", strings.Join(fails, "; "))
	} else {
		fmt.Fprintf(w, "  verdict: PASS\n")
	}
}
