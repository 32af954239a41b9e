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
//	apollo-runs mem <id>                   # render a run's memory timeline (its "mem" events)
//	apollo-runs gc -keep 20 -age 720h      # prune old entries (-n: same selection, no delete)
//	apollo-runs watch <id>                 # live-tail a run's step events
//	apollo-runs watch -metrics http://127.0.0.1:8080/debug/vars <id>
//
// Subcommand flags come before positional arguments (standard Go flag
// parsing stops at the first non-flag).
//
// Every subcommand reads runs/<id>/events.jsonl through the one reader in
// internal/obs/runlog. diff is the CI regression gate: it reports the first
// loss-divergence step, loss deltas at checkpoints, phase-time breakdown
// deltas, step-wall p50/p95, and peak ledger memory, then exits 1 when the
// loss gate (-loss-tol, default 0 = bit-exact), the opt-in time gate
// (-time-tol, fraction; 0 disables), or the opt-in memory gate (-mem-tol,
// fraction over the baseline's peak ledger bytes; 0 disables) trips — or
// when the two runs have no aligned step to compare. mem renders the memory
// timeline apollo-pretrain records (component peaks against their memmodel
// predictions, heap/RSS peaks, high-water marks). watch polls the growing
// event stream by byte offset — an unterminated tail line is retried on the
// next poll — and can additionally read a server's GET /debug/vars each
// poll, reporting its counters and the latency quantiles it serves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
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
  watch   [-interval DUR] [-n N] [-metrics URL] <id>
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

// cmdMem renders a run's memory timeline (its "mem" events): per-component
// peaks with their analytic predictions, process-level peaks, and a sampled
// view of the timeline itself. Accepts a ledger run ID or a bare run
// directory (e.g. a committed CI baseline).
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
		return fmt.Errorf("run %s has no memory timeline (no mem events in %s)", rd.Manifest.ID, runlog.EventsFile)
	}

	first, last := rd.Mem[0], rd.Mem[len(rd.Mem)-1]
	span := time.Duration(last.UnixUS-first.UnixUS) * time.Microsecond
	fmt.Printf("run        %s\n", rd.Manifest.ID)
	fmt.Printf("samples    %d over %s (steps %d..%d)\n", len(rd.Mem), span.Round(time.Millisecond), first.Step, last.Step)

	fmt.Printf("components (peak):\n")
	for _, p := range rd.ComponentPeaks() {
		line := fmt.Sprintf("  %-24s %12s", p.Name, obs.FormatBytes(p.Bytes))
		if p.Predicted > 0 {
			line += fmt.Sprintf("  predicted %12s  delta %+.2f%%",
				obs.FormatBytes(int64(p.Predicted)), 100*(float64(p.Bytes)-p.Predicted)/p.Predicted)
		}
		fmt.Println(line)
	}

	peak, _ := rd.MemPeak()
	fmt.Printf("peaks      ledger %s (step %d)", obs.FormatBytes(peak.TotalBytes), peak.Step)
	var heapMax, rssMax int64
	for _, s := range rd.Mem {
		heapMax = max(heapMax, int64(s.HeapInuse))
		rssMax = max(rssMax, s.RSSBytes)
	}
	fmt.Printf("  heap in-use %s", obs.FormatBytes(heapMax))
	if rssMax > 0 {
		fmt.Printf("  rss %s", obs.FormatBytes(rssMax))
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
			rss = obs.FormatBytes(s.RSSBytes)
		}
		fmt.Printf("%8d %12s %12s %12s%s\n", s.Step, obs.FormatBytes(s.TotalBytes), obs.FormatBytes(int64(s.HeapInuse)), rss, mark)
	}
	return nil
}

func cmdGC(root string, args []string) error {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	keep := fs.Int("keep", -1, "keep only the newest N runs (-1 = no count limit)")
	age := fs.Duration("age", 0, "also remove runs older than this (0 = no age limit)")
	dry := fs.Bool("n", false, "dry run: list what gc would remove, delete nothing")
	fs.Parse(args)
	if *keep < 0 && *age <= 0 {
		return fmt.Errorf("gc needs -keep N and/or -age DUR")
	}
	removed, err := runlog.GC(root, *keep, *age, *dry)
	verb := "removed"
	if *dry {
		verb = "would remove"
	}
	for _, id := range removed {
		fmt.Printf("%s %s\n", verb, id)
	}
	if err == nil && !*dry {
		fmt.Printf("gc: removed %d run(s)\n", len(removed))
	}
	return err
}

func cmdWatch(root string, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	iters := fs.Int("n", 0, "stop after N polls (0 = until interrupted)")
	varsURL := fs.String("metrics", "", "also read this GET /debug/vars endpoint each poll")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("watch needs exactly one run ID")
	}
	dir := filepath.Join(root, fs.Arg(0))

	var off int64
	lastStep, lastWall := 0, time.Now()
	for poll := 0; *iters == 0 || poll < *iters; poll++ {
		if poll > 0 {
			time.Sleep(*interval)
		}
		var fresh runlog.RunData
		var err error
		if off, err = runlog.TailEvents(dir, off, &fresh); err != nil {
			return err
		}
		now := time.Now()
		line := fmt.Sprintf("%s ", now.Format("15:04:05"))
		if evs := fresh.Steps; len(evs) > 0 {
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
		if *varsURL != "" {
			if err := scrapeVars(*varsURL); err != nil {
				fmt.Printf("  metrics: %v\n", err)
			}
		}
	}
	return nil
}

// scrapeVars GETs a server's /debug/vars (obs.Registry.WriteVars: counters
// and gauges as numbers, histograms as objects carrying their own
// quantiles) and prints the counters plus each histogram's count, p50, p95.
func scrapeVars(url string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //apollo:allowdiscard read-only response stream; the decoder below consumes it
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	for _, name := range sortedKeys(vars) {
		var hist struct {
			Count int64   `json:"count"`
			P50   float64 `json:"p50"`
			P95   float64 `json:"p95"`
		}
		var n float64
		switch raw := vars[name]; {
		case json.Unmarshal(raw, &hist) == nil:
			fmt.Printf("  %-44s n=%d p50=%.4fs p95=%.4fs\n", name, hist.Count, hist.P50, hist.P95)
		case strings.Contains(name, "_total") && json.Unmarshal(raw, &n) == nil:
			fmt.Printf("  %-44s %.0f\n", name, n)
		}
	}
	return nil
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
