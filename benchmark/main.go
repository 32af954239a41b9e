// Command benchmark is the repository's benchmark: it builds the program's
// commands and the benchmark's two measuring binaries from source, runs a
// workload through them one subprocess per episode, checks the outputs, and
// prints the metrics BENCHMARK.json declares.
//
//	bash benchmark/run.sh --workload pretrain_fused --seed 1 --seconds 24 --trace 0
//	bash benchmark/run.sh --repeats 10 --out benchmark/out/set1.jsonl
//	bash benchmark/run.sh compare benchmark/out/parent.jsonl benchmark/out/change.jsonl
//
// Each run prints one JSON object on the last line of standard output;
// everything meant for people goes to standard error. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"apollo/benchmark/spec"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// result is the object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of an -out file: a run with what it ran on.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Host     host    `json:"host"`
	Result   result  `json:"result"`
}

// host is the fingerprint numbers are only comparable within.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	var (
		root     = flag.String("root", ".", "checkout root: the directory holding BENCHMARK.json")
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "seed of the first run; run i of a set uses seed+i")
		seconds  = flag.Float64("seconds", 0, "measuring budget of one run (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		repeats  = flag.Int("repeats", 0, "runs per workload (0 = 1 for a named workload, 3 for all)")
		out      = flag.String("out", "", "append one record per run to this JSON-lines file")
		tiny     = flag.Bool("tiny", false, "smoke-test sizes")
	)
	flag.Parse()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	b, err := newBench(*root, *tiny)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range b.contract.Workloads {
			names = append(names, w.Name)
		}
		if *repeats == 0 {
			*repeats = 3
		}
	}
	if *repeats == 0 {
		*repeats = 1
	}
	if *seconds <= 0 {
		*seconds = float64(b.contract.RunSeconds)
	}
	if err := b.build(ctx, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}

	var records []record
	exit := 0
	for _, name := range names {
		for i := 0; i < *repeats; i++ {
			rec := record{Workload: name, Seed: *seed + uint64(i), Seconds: *seconds, Trace: *trace, Host: b.host}
			rec.Result, err = b.run(ctx, name, rec.Seed, *seconds, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", name, rec.Seed, err)
				os.Exit(1)
			}
			if !rec.Result.Correct {
				exit = 1
			}
			records = append(records, rec)
			if *out != "" {
				if err := appendRecord(*out, rec); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					os.Exit(1)
				}
			}
			line, _ := json.Marshal(rec.Result)
			fmt.Println(string(line))
		}
	}
	if len(records) > 1 {
		printTable(os.Stderr, b.contract, records)
	}
	os.Exit(exit)
}

// bench holds what every run of this invocation shares.
type bench struct {
	root     string
	bin      string
	tmp      string
	tiny     bool
	contract contract
	host     host
}

func newBench(root string, tiny bool) (*bench, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	b := &bench{
		root: abs, tiny: tiny,
		bin: filepath.Join(abs, ".bench_build", "bin"),
		tmp: filepath.Join(abs, ".bench_build", "tmp"),
	}
	if b.contract, err = readContract(filepath.Join(abs, "BENCHMARK.json")); err != nil {
		return nil, err
	}
	b.host = host{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit(abs),
	}
	return b, nil
}

func readContract(path string) (contract, error) {
	var c contract
	blob, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(blob, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit names the source measured: git's HEAD where the checkout is a
// repository, otherwise "unversioned".
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unversioned"
	}
	return strings.TrimSpace(string(out))
}

// build compiles the program's two commands from the checkout's sources and
// the benchmark's measuring binaries. The layers binary is built only for a
// traced run: an internal signature change can break it alone, and must not
// take the end-to-end numbers with it.
func (b *bench) build(ctx context.Context, traced bool) error {
	mine := []string{"build", "-o", b.bin + "/", "./e2e"}
	if traced {
		mine = append(mine, "./layers")
	}
	steps := []struct {
		dir  string
		args []string
	}{
		{b.root, []string{"build", "-o", b.bin + "/", "./cmd/apollo-pretrain", "./cmd/apollo-serve"}},
		{filepath.Join(b.root, "benchmark"), mine},
	}
	for _, s := range steps {
		cmd := exec.CommandContext(ctx, "go", s.args...)
		cmd.Dir = s.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go %s: %w\n%s", strings.Join(s.args, " "), err, out)
		}
	}
	return nil
}

// child runs one measuring subprocess and decodes the episode it prints
// last. Cancellation asks the child to stop with SIGTERM so it can stop a
// server it started.
func (b *bench) child(ctx context.Context, name string, args ...string) (spec.Episode, error) {
	var ep spec.Episode
	if b.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.CommandContext(ctx, filepath.Join(b.bin, name), args...)
	cmd.Dir = b.root
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 20 * time.Second
	out, err := cmd.Output()
	if err != nil {
		return ep, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ep); err != nil {
		return ep, fmt.Errorf("%s: last line is not an episode: %w", name, err)
	}
	return ep, nil
}

// run measures one workload once and returns the object to print.
func (b *bench) run(ctx context.Context, name string, seed uint64, seconds float64, traced bool) (result, error) {
	if !slices.Contains(spec.Names, name) {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(spec.Names, ", "))
	}
	started := time.Now()
	var eps []spec.Episode
	var layer map[string]float64
	var err error
	switch {
	case traced:
		eps, layer, err = b.runTraced(ctx, name, seed, seconds)
	case name == spec.Serve:
		eps, err = b.runServe(ctx, seed, seconds, "")
	default:
		eps, err = b.runTrain(ctx, name, seed, seconds)
	}
	if err != nil {
		return result{}, err
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	var slow []float64
	for _, ep := range eps {
		res.Attempted += ep.Attempted
		res.Failed += ep.Failed
		slow = append(slow, ep.Slowdown...)
		for _, p := range ep.Problems {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "  CHECK FAILED %s: %s\n", name, p)
		}
		for _, n := range ep.Notes {
			fmt.Fprintf(os.Stderr, "  %s: %s\n", name, n)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	decls, values := b.contract.EndToEnd, endToEnd(eps)
	if traced {
		layer["host.slowdown"] = spec.Median(slow)
		decls, values = b.contract.PerLayer, layer
	}
	for key := range values {
		if !slices.ContainsFunc(decls, func(d metricDecl) bool { return d.Name == key }) {
			return result{}, fmt.Errorf("%s: metric %q is measured but BENCHMARK.json does not declare it", name, key)
		}
	}
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok && !traced {
			return result{}, fmt.Errorf("%s: no value for end-to-end metric %q", name, d.Name)
		}
		// A per-layer metric the workload's path never enters reads 0: the
		// layer did no work here.
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	fmt.Fprintf(os.Stderr, "%s seed %d trace %v: %d episodes, attempted %d failed %d correct %v, %.1f s; times are nominal, the host ran %.2f times slower (median of %d reference samples)\n",
		name, seed, traced, len(eps), res.Attempted, res.Failed, res.Correct, time.Since(started).Seconds(), spec.Median(slow), len(slow))
	for _, d := range decls {
		if v := res.Metrics[d.Name].Value; v != 0 || !traced { //apollo:exactfloat an unentered layer reads exactly 0; such rows are only left out of the printout
			fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	return res, nil
}

// runTrain runs training episodes, one process each, until the budget is
// spent, and checks that every one ends on the same final loss.
func (b *bench) runTrain(ctx context.Context, name string, seed uint64, seconds float64) ([]spec.Episode, error) {
	seedArg := strconv.FormatUint(seed, 10)
	var eps []spec.Episode
	if name == spec.DPZero {
		ep, err := b.child(ctx, "e2e", "-workload", name, "-seed", seedArg, "-parity")
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}
	// The budget covers whole episodes, set-up included, because set-up
	// time is measured too: another one starts only if it should end inside
	// the budget. At least three, so that set-up time has a median.
	begin := time.Now()
	var last time.Duration
	for n := 0; n < 3 || time.Since(begin)+last <= time.Duration(seconds*float64(time.Second)); n++ {
		t := time.Now()
		ep, err := b.child(ctx, "e2e", "-workload", name, "-seed", seedArg)
		if err != nil {
			return nil, err
		}
		last = time.Since(t)
		eps = append(eps, ep)
	}
	checkSameLoss(eps)
	return eps, nil
}

// checkSameLoss marks every episode whose final loss differs from the first
// one's as failed: the determinism contract says a seed has one loss.
func checkSameLoss(eps []spec.Episode) {
	want := ""
	for i := range eps {
		ep := &eps[i]
		switch {
		case ep.FinalLoss == "":
		case want == "":
			want = ep.FinalLoss
		case ep.FinalLoss != want:
			ep.Failed = ep.Attempted
			ep.Problems = append(ep.Problems, fmt.Sprintf("final loss %s, an earlier episode of this seed ended on %s", ep.FinalLoss, want))
		}
	}
}

func (b *bench) runServe(ctx context.Context, seed uint64, seconds float64, trace string) ([]spec.Episode, error) {
	args := []string{
		"-workload", spec.Serve, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-bin", b.bin, "-tmp", b.tmp,
	}
	if trace != "" {
		args = append(args, "-trace", trace)
	}
	ep, err := b.child(ctx, "e2e", args...)
	return []spec.Episode{ep}, err
}

// runTraced gives the per-layer metrics: an untraced baseline first, then
// the traced run, so the cost of tracing is on the same sheet.
func (b *bench) runTraced(ctx context.Context, name string, seed uint64, seconds float64) ([]spec.Episode, map[string]float64, error) {
	seedArg := strconv.FormatUint(seed, 10)
	traceFile := filepath.Join(b.root, "benchmark", "out", "trace."+name+".jsonl")
	layerArgs := []string{"-workload", name, "-seed", seedArg, "-trace", traceFile, "-tmp", b.tmp}
	var base, traced spec.Episode
	var eps []spec.Episode
	var err error
	if name == spec.Serve {
		// Half the budget untraced, the whole budget traced.
		if eps, err = b.runServe(ctx, seed, seconds/2, ""); err != nil {
			return nil, nil, err
		}
		base = eps[0]
		more, err := b.runServe(ctx, seed, seconds, traceFile)
		if err != nil {
			return nil, nil, err
		}
		traced = more[0]
		eps = append(eps, traced)
	} else {
		if base, err = b.child(ctx, "e2e", "-workload", name, "-seed", seedArg); err != nil {
			return nil, nil, err
		}
		eps = append(eps, base)
		layerArgs = append(layerArgs, "-want-loss", base.FinalLoss,
			"-untraced-p50", strconv.FormatFloat(spec.Median(base.LatencyMS), 'g', -1, 64))
	}
	probes, err := b.child(ctx, "layers", layerArgs...)
	if err != nil {
		return nil, nil, err
	}
	eps = append(eps, probes)
	if name != spec.Serve {
		traced = probes
	}

	layer := map[string]float64{}
	maps.Copy(layer, traced.Layer)
	maps.Copy(layer, probes.Layer)
	layer["obs.trace_overhead_frac"] = 1 - (traced.Tokens/traced.WindowS)/(base.Tokens/base.WindowS)
	if name == spec.Serve {
		// What HTTP, the cache lookup and the queue add to a logprob query
		// when the server is nearly idle: the lowest rate's median over
		// HTTP minus the direct call.
		http := layer["serve.logprob_ms_p50."+spec.Serving(seconds, b.tiny).Tag(0)]
		layer["serve.http_overhead_ms"] = http - layer["serve.logprob_direct_ms"]
	}
	return eps, layer, nil
}

// endToEnd folds the episodes of one run into the end-to-end metrics, all
// times nominal as the episodes carry them (spec.HostRef). Latency samples
// and set-up samples are pooled over the episodes;
// throughput and memory are the median episode's, so one episode that met a
// stall does not set them.
func endToEnd(eps []spec.Episode) map[string]float64 {
	var setup, latency, rss, rate []float64
	var state int64
	for _, ep := range eps {
		if len(ep.SetupS) == 0 {
			continue // a check-only episode
		}
		setup = append(setup, ep.SetupS...)
		latency = append(latency, ep.LatencyMS...)
		rss = append(rss, float64(ep.PeakRSSKB))
		rate = append(rate, ep.Tokens/ep.WindowS)
		state = max(state, ep.StateBytes)
	}
	return map[string]float64{
		"tokens_per_s":   spec.Median(rate),
		"latency_ms_p50": spec.Median(latency),
		"latency_ms_p75": spec.Quantile(latency, 0.75),
		"state_bytes":    float64(state),
		"peak_rss_mb":    spec.Median(rss) / 1024,
		"setup_s":        spec.Median(setup),
	}
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	return errors.Join(err, f.Close())
}

// summary is the median, quartiles and count of one metric on one workload.
type summary struct {
	q1, med, q3 float64
	n           int
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.med == 0 { //apollo:exactfloat guards the division; a count that is exactly 0 has no relative spread
		return 0
	}
	return (s.q3 - s.q1) / s.med
}

// summarize groups records by workload and metric.
func summarize(records []record) map[string]map[string]summary {
	values := map[string]map[string][]float64{}
	for _, r := range records {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
	}
	out := map[string]map[string]summary{}
	for w, byMetric := range values {
		out[w] = map[string]summary{}
		for name, vs := range byMetric {
			s := summary{med: spec.Median(vs), n: len(vs)}
			s.q1, s.q3 = s.med, s.med
			if q1, med, q3, err := spec.Quartiles(vs); err == nil {
				s.q1, s.med, s.q3 = q1, med, q3
			}
			out[w][name] = s
		}
	}
	return out
}

// printTable prints every metric of a set by name with unit, median,
// quartiles and sample count.
func printTable(w *os.File, c contract, records []record) {
	sums := summarize(records)
	units := map[string]string{}
	for _, d := range append(append([]metricDecl(nil), c.EndToEnd...), c.PerLayer...) {
		units[d.Name] = d.Unit
	}
	fmt.Fprintf(w, "\n%-20s %-36s %-6s %14s %14s %14s %3s %7s\n", "workload", "metric", "unit", "median", "q1", "q3", "n", "spread")
	for _, name := range spec.Names {
		metrics := make([]string, 0, len(sums[name]))
		for m := range sums[name] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			s := sums[name][m]
			fmt.Fprintf(w, "%-20s %-36s %-6s %14.6g %14.6g %14.6g %3d %6.1f%%\n", name, m, units[m], s.med, s.q1, s.q3, s.n, s.spread()*100)
		}
	}
}
