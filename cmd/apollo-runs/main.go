// Command apollo-runs inspects the run ledger that apollo-pretrain and
// apollo-bench write under runs/ (see internal/obs/runlog).
//
// Usage:
//
//	apollo-runs list                       # table of every run, oldest first
//	apollo-runs list -q                    # bare IDs (newest last; script-friendly)
//	apollo-runs show <id>                  # one run's manifest, alerts, final metrics
//	apollo-runs diff <idA> <idB>           # align two runs step-by-step
//	apollo-runs diff -baseline DIR <id>    # compare a run against a committed baseline dir
//	apollo-runs mem <id>                   # render a run's memory timeline (mem.jsonl)
//	apollo-runs gc -keep 20 -age 720h      # prune old entries
//	apollo-runs watch <id>                 # live-tail a run's step stream
//	apollo-runs watch -telemetry f.jsonl   # tail a bare -telemetry file instead
//	apollo-runs watch -metrics http://127.0.0.1:8080/metrics <id>
//
// Subcommand flags come before positional arguments (standard Go flag
// parsing stops at the first non-flag).
//
// diff is the CI regression gate: it reports the first loss-divergence step,
// loss deltas at checkpoints, phase-time breakdown deltas, step-wall
// p50/p95, and peak ledger memory, then exits 1 when the loss gate
// (-loss-tol, default 0 = bit-exact), the opt-in time gate (-time-tol,
// fraction; 0 disables), or the opt-in memory gate (-mem-tol, fraction over
// the baseline's peak ledger bytes; 0 disables) trips. mem renders the
// memory timeline apollo-pretrain records (component peaks against their
// memmodel predictions, heap/RSS peaks, high-water marks). watch polls a
// growing steps.jsonl by byte offset — safe against
// torn tail lines — and can additionally scrape a Prometheus /metrics
// endpoint, reporting request rates and latency quantiles interpolated from
// the cumulative histogram buckets.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"apollo/internal/obs"
	"apollo/internal/obs/runlog"
)

func main() {
	root := flag.String("root", "runs", "run-ledger root directory")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "list":
		err = cmdList(*root, args[1:])
	case "show":
		err = cmdShow(*root, args[1:])
	case "diff":
		err = cmdDiff(*root, args[1:])
	case "mem":
		err = cmdMem(*root, args[1:])
	case "gc":
		err = cmdGC(*root, args[1:])
	case "watch":
		err = cmdWatch(*root, args[1:])
	default:
		fmt.Fprintf(os.Stderr, "apollo-runs: unknown command %q\n\n", args[0])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "apollo-runs:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: apollo-runs [-root DIR] <command> [flags] [args]

commands:
  list    [-q]                                      list runs (oldest first)
  show    <id>                                      one run in detail
  diff    [-loss-tol F] [-time-tol F] [-mem-tol F] [-baseline DIR] <idA> [<idB>]
                                                    align two runs; exit 1 on gate failure
  mem     [-rows N] <id|dir>                        render a run's memory timeline
  gc      [-keep N] [-age DUR] [-n]                 prune old runs
  watch   [-interval DUR] [-n N] [-metrics URL] [-telemetry FILE] [<id>]
                                                    live-tail a run
`)
}

func cmdList(root string, args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	quiet := fs.Bool("q", false, "print bare run IDs only")
	fs.Parse(args)
	ms, err := runlog.List(root)
	if err != nil {
		return err
	}
	if *quiet {
		for _, m := range ms {
			fmt.Println(m.ID)
		}
		return nil
	}
	if len(ms) == 0 {
		fmt.Printf("no runs under %s\n", root)
		return nil
	}
	fmt.Printf("%-42s %-12s %-10s %6s %10s %8s %7s\n",
		"id", "optimizer", "status", "steps", "final loss", "ppl", "alerts")
	for _, m := range ms {
		loss, ppl := "-", "-"
		if m.Status != runlog.StatusRunning && m.Steps > 0 {
			loss = fmt.Sprintf("%.4f", m.FinalLoss)
			ppl = fmt.Sprintf("%.2f", m.FinalPPL)
		}
		fmt.Printf("%-42s %-12s %-10s %6d %10s %8s %7d\n",
			m.ID, m.Optimizer, m.Status, m.Steps, loss, ppl, m.Alerts)
	}
	return nil
}

func cmdShow(root string, args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("show needs exactly one run ID")
	}
	rd, err := runlog.Load(root, fs.Arg(0))
	if err != nil {
		return err
	}
	m := rd.Manifest
	fmt.Printf("run        %s\n", m.ID)
	fmt.Printf("command    %s\n", m.Command)
	fmt.Printf("optimizer  %s  seed %d  replicas %d  zero %v\n", m.Optimizer, m.Seed, m.Replicas, m.ZeRO)
	fmt.Printf("host       %s  %d cores  %s/%s  %s\n", m.Host.Hostname, m.Host.Cores, m.Host.GOOS, m.Host.GOARCH, m.Host.GoVersion)
	fmt.Printf("start      %s\n", m.Start.Format(time.RFC3339))
	if !m.End.IsZero() {
		fmt.Printf("end        %s  (%.1fs)\n", m.End.Format(time.RFC3339), m.End.Sub(m.Start).Seconds())
	}
	fmt.Printf("status     %s", m.Status)
	if m.Error != "" {
		fmt.Printf("  (%s)", m.Error)
	}
	fmt.Println()
	if keys := sortedKeys(m.Config); len(keys) > 0 {
		fmt.Printf("config    ")
		for _, k := range keys {
			fmt.Printf(" %s=%v", k, m.Config[k])
		}
		fmt.Println()
	}
	if m.Steps > 0 {
		fmt.Printf("steps      %d  final loss %.6f  ppl %.2f  step wall %.3fs\n",
			m.Steps, m.FinalLoss, m.FinalPPL, m.StepWallSeconds)
	}
	if len(m.PhaseSeconds) > 0 {
		fmt.Println("phases:")
		for _, name := range obs.PhaseNames() {
			if s, ok := m.PhaseSeconds[name]; ok {
				fmt.Printf("  %-10s %10.3fs  (%4.1f%%)\n", name, s, 100*s/m.StepWallSeconds)
			}
		}
	}
	if n := len(rd.Steps); n > 0 {
		last := rd.Steps[n-1]
		fmt.Printf("series     %d step events; last: step %d loss %.6f grad %.4f\n",
			n, last.Step, last.Loss, last.GradNorm)
	}
	for _, a := range rd.Alerts {
		fmt.Printf("alert      step %d %s loss=%g median=%g factor=%.1f halt=%v\n",
			a.Step, a.Kind, a.Loss, a.Median, a.Factor, a.Halt)
	}
	return nil
}

func cmdDiff(root string, args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	lossTol := fs.Float64("loss-tol", 0, "max |Δloss| per aligned step (0 = bit-exact)")
	timeTol := fs.Float64("time-tol", 0, "max fractional p50 step-wall regression (0 disables the time gate)")
	memTol := fs.Float64("mem-tol", 0, "max fractional peak-ledger-memory regression (0 disables the memory gate)")
	baseline := fs.String("baseline", "", "baseline run directory (A side); compare one run ID against it")
	ckpts := fs.Int("checkpoints", 0, "loss checkpoints to print (0 = default 10)")
	fs.Parse(args)

	var a, b *runlog.RunData
	var err error
	switch {
	case *baseline != "" && fs.NArg() == 1:
		if a, err = runlog.LoadDir(*baseline); err != nil {
			return err
		}
		if b, err = runlog.Load(root, fs.Arg(0)); err != nil {
			return err
		}
	case *baseline == "" && fs.NArg() == 2:
		if a, err = runlog.Load(root, fs.Arg(0)); err != nil {
			return err
		}
		if b, err = runlog.Load(root, fs.Arg(1)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("diff needs two run IDs, or -baseline DIR plus one run ID")
	}
	rep := runlog.Diff(a, b, runlog.DiffOptions{LossTol: *lossTol, TimeTol: *timeTol, MemTol: *memTol, Checkpoints: *ckpts})
	rep.Write(os.Stdout)
	if rep.Failed() {
		os.Exit(1)
	}
	return nil
}

// cmdMem renders a run's memory timeline (mem.jsonl): per-component peaks
// with their analytic predictions, process-level peaks, and a sampled view
// of the timeline itself. Accepts a ledger run ID or a bare run directory
// (e.g. a committed CI baseline).
func cmdMem(root string, args []string) error {
	fs := flag.NewFlagSet("mem", flag.ExitOnError)
	rows := fs.Int("rows", 10, "timeline rows to print (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("mem needs exactly one run ID or directory")
	}
	var rd *runlog.RunData
	var err error
	if st, serr := os.Stat(fs.Arg(0)); serr == nil && st.IsDir() {
		rd, err = runlog.LoadDir(fs.Arg(0))
	} else {
		rd, err = runlog.Load(root, fs.Arg(0))
	}
	if err != nil {
		return err
	}
	if len(rd.Mem) == 0 {
		return fmt.Errorf("run %s has no memory timeline (%s)", rd.Manifest.ID, runlog.MemFile)
	}

	first, last := rd.Mem[0], rd.Mem[len(rd.Mem)-1]
	span := time.Duration(last.UnixUS-first.UnixUS) * time.Microsecond
	fmt.Printf("run        %s\n", rd.Manifest.ID)
	fmt.Printf("samples    %d over %s (steps %d..%d)\n", len(rd.Mem), span.Round(time.Millisecond), first.Step, last.Step)

	// Per-component peaks, with the analytic prediction (from the sample
	// where the component peaked) and its delta when one was recorded.
	type peakInfo struct {
		bytes     int64
		predicted float64
		hasPred   bool
	}
	peaks := map[string]peakInfo{}
	for _, s := range rd.Mem {
		for comp, v := range s.Components {
			p := peaks[comp]
			if v >= p.bytes {
				p.bytes = v
				if pred, ok := s.Predicted[comp]; ok {
					p.predicted, p.hasPred = pred, true
				}
			}
			peaks[comp] = p
		}
	}
	fmt.Printf("components (peak):\n")
	for _, comp := range sortedKeys(peaks) {
		p := peaks[comp]
		line := fmt.Sprintf("  %-24s %12s", comp, runlog.FormatBytes(p.bytes))
		if p.hasPred && p.predicted > 0 {
			line += fmt.Sprintf("  predicted %12s  delta %+.2f%%",
				runlog.FormatBytes(int64(p.predicted)), 100*(float64(p.bytes)-p.predicted)/p.predicted)
		}
		fmt.Println(line)
	}

	peak, _ := rd.MemPeak()
	fmt.Printf("peaks      ledger %s (step %d)", runlog.FormatBytes(peak.TotalBytes), peak.Step)
	var heapMax, rssMax int64
	for _, s := range rd.Mem {
		heapMax = max(heapMax, int64(s.HeapInuse))
		rssMax = max(rssMax, s.RSSBytes)
	}
	fmt.Printf("  heap in-use %s", runlog.FormatBytes(heapMax))
	if rssMax > 0 {
		fmt.Printf("  rss %s", runlog.FormatBytes(rssMax))
	}
	fmt.Println()
	fmt.Printf("gc         %d cycles, %s total pause\n",
		last.GCCycles, time.Duration(last.GCPauseNS).Round(time.Microsecond))

	// Timeline: up to -rows evenly spaced samples, peaks flagged.
	n := len(rd.Mem)
	stride := 1
	if *rows > 0 && n > *rows {
		stride = (n + *rows - 1) / *rows
	}
	fmt.Printf("%8s %12s %12s %12s %s\n", "step", "ledger", "heap", "rss", "")
	for i := 0; i < n; i += stride {
		s := rd.Mem[i]
		mark := ""
		if s.HighWater {
			mark = "  ← high water"
		}
		rss := "-"
		if s.RSSBytes > 0 {
			rss = runlog.FormatBytes(s.RSSBytes)
		}
		fmt.Printf("%8d %12s %12s %12s%s\n", s.Step, runlog.FormatBytes(s.TotalBytes), runlog.FormatBytes(int64(s.HeapInuse)), rss, mark)
	}
	return nil
}

func cmdGC(root string, args []string) error {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	keep := fs.Int("keep", -1, "keep only the newest N runs (-1 = no count limit)")
	age := fs.Duration("age", 0, "also remove runs older than this (0 = no age limit)")
	dry := fs.Bool("n", false, "dry run: list what would be removed")
	fs.Parse(args)
	if *keep < 0 && *age <= 0 {
		return fmt.Errorf("gc needs -keep N and/or -age DUR")
	}
	if *dry {
		ms, err := runlog.List(root)
		if err != nil {
			return err
		}
		now := time.Now().UTC()
		for i, m := range ms {
			if (*keep >= 0 && len(ms)-i > *keep) || (*age > 0 && now.Sub(m.Start) > *age) {
				fmt.Printf("would remove %s (%s, started %s)\n", m.ID, m.Status, m.Start.Format(time.RFC3339))
			}
		}
		return nil
	}
	removed, err := runlog.GC(root, *keep, *age)
	for _, id := range removed {
		fmt.Printf("removed %s\n", id)
	}
	if err == nil {
		fmt.Printf("gc: removed %d run(s)\n", len(removed))
	}
	return err
}

func cmdWatch(root string, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	iters := fs.Int("n", 0, "stop after N polls (0 = until interrupted)")
	metricsURL := fs.String("metrics", "", "also scrape this Prometheus /metrics endpoint each poll")
	telem := fs.String("telemetry", "", "tail this bare telemetry JSONL file instead of a ledger run")
	fs.Parse(args)

	var path string
	switch {
	case *telem != "":
		if fs.NArg() != 0 {
			return fmt.Errorf("watch takes a run ID or -telemetry FILE, not both")
		}
		path = *telem
	case fs.NArg() == 1:
		path = filepath.Join(root, fs.Arg(0), runlog.StepsFile)
	default:
		return fmt.Errorf("watch needs a run ID or -telemetry FILE")
	}

	tail := &stepTail{path: path}
	lastStep, lastWall := 0, time.Now()
	for poll := 0; *iters == 0 || poll < *iters; poll++ {
		if poll > 0 {
			time.Sleep(*interval)
		}
		evs, err := tail.next()
		if err != nil {
			return err
		}
		now := time.Now()
		line := fmt.Sprintf("%s ", now.Format("15:04:05"))
		if len(evs) > 0 {
			last := evs[len(evs)-1]
			rate := float64(last.Step-lastStep) / now.Sub(lastWall).Seconds()
			if poll == 0 {
				// First poll reads the whole backlog; a rate over the poll
				// window would be meaningless.
				rate = 0
			}
			line += fmt.Sprintf("step %d  loss %.6f  grad %.4f  wall %.3fs",
				last.Step, last.Loss, last.GradNorm, last.WallSeconds)
			if rate > 0 {
				line += fmt.Sprintf("  %.2f steps/s", rate)
			}
			lastStep, lastWall = last.Step, now
		} else {
			line += fmt.Sprintf("no new steps (at %d)", lastStep)
		}
		fmt.Println(line)
		if *metricsURL != "" {
			if err := scrapeMetrics(*metricsURL); err != nil {
				fmt.Printf("  metrics: %v\n", err)
			}
		}
	}
	return nil
}

// stepTail incrementally reads complete JSONL lines from a growing file,
// resuming at the byte offset after the last full line so a torn tail line
// (a write in progress) is retried on the next poll.
type stepTail struct {
	path string
	off  int64
}

func (t *stepTail) next() ([]obs.StepEvent, error) {
	f, err := os.Open(t.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close() //apollo:allowdiscard file opened read-only; close cannot lose written bytes
	if _, err := f.Seek(t.off, io.SeekStart); err != nil {
		return nil, err
	}
	var evs []obs.StepEvent
	rd := bufio.NewReader(f)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			// No trailing newline yet: leave the offset before this partial
			// line and pick it up complete on the next poll.
			break
		}
		t.off += int64(len(line))
		var ev obs.StepEvent
		if jerr := unmarshalStep(line, &ev); jerr == nil {
			evs = append(evs, ev)
		}
	}
	return evs, nil
}

func unmarshalStep(line []byte, ev *obs.StepEvent) error {
	dec := strings.TrimSpace(string(line))
	if dec == "" {
		return fmt.Errorf("empty")
	}
	return json.Unmarshal([]byte(dec), ev)
}

// scrapeMetrics GETs a Prometheus text endpoint and reports counters plus
// latency quantiles interpolated from cumulative histogram buckets.
func scrapeMetrics(url string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //apollo:allowdiscard read-only response stream; body is fully consumed above EOF
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	hists, counters, err := parsePromText(resp.Body)
	if err != nil {
		return err
	}
	for _, name := range sortedKeys(counters) {
		fmt.Printf("  %-44s %d\n", name, counters[name])
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		fmt.Printf("  %-44s n=%d p50=%.4fs p95=%.4fs\n", name, h.count, h.quantile(0.50), h.quantile(0.95))
	}
	return nil
}

// promHist is one histogram series reassembled from its cumulative buckets.
type promHist struct {
	les   []float64 // sorted upper bounds, +Inf last
	cum   []uint64  // cumulative counts aligned with les
	count uint64
}

// quantile interpolates linearly inside the bucket holding rank q·count —
// the same estimate Prometheus's histogram_quantile produces.
func (h *promHist) quantile(q float64) float64 {
	if h.count == 0 || len(h.les) == 0 {
		return 0
	}
	rank := q * float64(h.count)
	for i, c := range h.cum {
		if float64(c) < rank {
			continue
		}
		upper := h.les[i]
		if math.IsInf(upper, 1) {
			// Open-ended bucket: report its lower bound.
			if i > 0 {
				return h.les[i-1]
			}
			return 0
		}
		lower, prev := 0.0, uint64(0)
		if i > 0 {
			lower, prev = h.les[i-1], h.cum[i-1]
		}
		width := float64(c - prev)
		if width <= 0 {
			return upper
		}
		return lower + (upper-lower)*(rank-float64(prev))/width
	}
	return h.les[len(h.les)-1]
}

// parsePromText reads Prometheus text exposition, returning histograms keyed
// by "name{labels}" (labels minus le) and plain counter samples.
func parsePromText(r io.Reader) (map[string]*promHist, map[string]int64, error) {
	hists := map[string]*promHist{}
	counters := map[string]int64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, value := line[:sp], line[sp+1:]
		name, labels := splitSeries(series)
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le, rest, ok := extractLE(labels)
			if !ok {
				continue
			}
			key := strings.TrimSuffix(name, "_bucket") + rest
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				continue
			}
			h := hists[key]
			if h == nil {
				h = &promHist{}
				hists[key] = h
			}
			h.les = append(h.les, le)
			h.cum = append(h.cum, v)
		case strings.HasSuffix(name, "_count"):
			key := strings.TrimSuffix(name, "_count") + labels
			if h := hists[key]; h != nil {
				if v, err := strconv.ParseUint(value, 10, 64); err == nil {
					h.count = v
				}
			} else if v, err := strconv.ParseUint(value, 10, 64); err == nil {
				// _count for a histogram whose buckets come later; create it.
				hists[key] = &promHist{count: v}
			}
		case strings.HasSuffix(name, "_sum"):
			// Sums aren't needed for quantiles.
		case strings.Contains(name, "_total"):
			if v, err := strconv.ParseInt(value, 10, 64); err == nil {
				counters[series] = v
			}
		}
	}
	for _, h := range hists {
		sortHist(h)
	}
	return hists, counters, sc.Err()
}

// splitSeries separates "name{a="b"}" into name and the brace part.
func splitSeries(s string) (name, labels string) {
	if i := strings.IndexByte(s, '{'); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// extractLE pulls le="..." out of a label set, returning its value and the
// label set with le removed (normalized for keying).
func extractLE(labels string) (le float64, rest string, ok bool) {
	if len(labels) < 2 {
		return 0, "", false
	}
	inner := labels[1 : len(labels)-1]
	var kept []string
	for _, part := range strings.Split(inner, ",") {
		k, v, found := strings.Cut(part, "=")
		if !found {
			continue
		}
		v = strings.Trim(v, `"`)
		if k == "le" {
			switch v {
			case "+Inf":
				le, ok = math.Inf(1), true
			default:
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return 0, "", false
				}
				le, ok = f, true
			}
			continue
		}
		kept = append(kept, part)
	}
	if len(kept) > 0 {
		rest = "{" + strings.Join(kept, ",") + "}"
	}
	return le, rest, ok
}

func sortHist(h *promHist) {
	idx := make([]int, len(h.les))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return h.les[idx[a]] < h.les[idx[b]] })
	les := make([]float64, len(idx))
	cum := make([]uint64, len(idx))
	for i, j := range idx {
		les[i], cum[i] = h.les[j], h.cum[j]
	}
	h.les, h.cum = les, cum
	if h.count == 0 && len(cum) > 0 {
		h.count = cum[len(cum)-1]
	}
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
