package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"apollo/benchmark/spec"
)

type serveOptions struct {
	mix   spec.ServeMix
	seed  uint64
	bin   string
	tmp   string
	trace string
}

// Request classes of the mix.
const (
	classLogProb  = "logprob"  // unique query: always computed
	classHot      = "hot"      // repeated query: a cache hit
	classZeroShot = "zeroshot" // Items×Opts scoring units in one request
)

// request is one pre-generated query.
type request struct {
	class  string
	path   string
	body   []byte
	tokens int
	hot    int // index into the hot pool, for classHot
}

// span is the client-side record of one request. Times are wall-clock
// milliseconds from the start of its phase; Slowdown is the host-reference
// reading around the request, which brings them to nominal.
type span struct {
	Rate      float64 `json:"rate"`
	Seq       int     `json:"seq"`
	Class     string  `json:"class"`
	DueMS     float64 `json:"due_ms"`
	SentMS    float64 `json:"sent_ms"`
	DoneMS    float64 `json:"done_ms"`
	Slowdown  float64 `json:"host_slowdown"`
	Status    int     `json:"status"`
	Cache     string  `json:"x_cache"`
	RequestID string  `json:"x_request_id,omitempty"`
	Err       string  `json:"error,omitempty"`
	tokens    int
}

func (s span) ok() bool { return s.Err == "" && s.Status == http.StatusOK }

// latencyMS and latenessMS are nominal: due → done, and due → sent.
func (s span) latencyMS() float64  { return (s.DoneMS - s.DueMS) / s.Slowdown }
func (s span) latenessMS() float64 { return (s.SentMS - s.DueMS) / s.Slowdown }

// runServe is the serve_mixed workload: train a checkpoint with
// apollo-pretrain, serve it with apollo-serve at default flags, check the
// served answers, then offer the mix open-loop at each fixed rate.
//
// The workload runs in nominal time (spec.HostRef): the host reference is
// sampled while the server idles, on both sides of every set-up and in the
// gaps between requests (hostMeter), requests are due at the fixed rate per
// nominal second, and every latency is brought to nominal by the samples
// around it. A host running 1.5 times slower is offered the requests 1.5
// times further apart, so the server is as busy as on the quiet host and
// queueing does not turn the host's mood into a latency of its own. A faster
// server is not given more load; only a faster host is.
func runServe(o serveOptions) (spec.Episode, error) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return spec.Episode{}, err
	}
	dir, err := os.MkdirTemp(o.tmp, "serve")
	if err != nil {
		return spec.Episode{}, err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "f.ckpt")
	seedArg := strconv.FormatUint(o.seed, 10)

	// Inputs the program receives: a checkpoint and request bodies.
	train := exec.CommandContext(ctx, filepath.Join(o.bin, "apollo-pretrain"),
		"-size", o.mix.Size, "-optimizer", "AdamW", "-steps", strconv.Itoa(o.mix.TrainSteps),
		"-seed", seedArg, "-save", ckpt, "-runs", "")
	if out, err := train.CombinedOutput(); err != nil {
		return spec.Episode{}, fmt.Errorf("apollo-pretrain: %w\n%s", err, out)
	}
	offline, err := exec.CommandContext(ctx, filepath.Join(o.bin, "apollo-serve"),
		"-size", o.mix.Size, "-seed", seedArg, "-offline", ckpt).Output()
	if err != nil {
		return spec.Episode{}, fmt.Errorf("apollo-serve -offline: %w", err)
	}
	gen := newGenerator(o.mix, o.seed, ckpt)
	warm := make([]request, o.mix.Warmup)
	for i := range warm {
		warm[i] = gen.logProb()
	}
	hot := make([]request, o.mix.HotPool)
	for i := range hot {
		hot[i] = gen.logProb()
		hot[i].class, hot[i].hot = classHot, i
	}
	phases := make([][]request, len(o.mix.Rates))
	for i, rate := range o.mix.Rates {
		phases[i] = gen.phase(int(rate*o.mix.PhaseSeconds+0.5), hot)
	}

	// No more connections than processors: the generator shares the host
	// with the server and must not crowd it out.
	nproc := runtime.NumCPU()
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true},
	}
	defer client.CloseIdleConnections()

	ep := spec.Episode{Layer: map[string]float64{}}
	ep.Notes = append(ep.Notes, fmt.Sprintf("generator: %d connections, GOMAXPROCS %d", nproc, runtime.GOMAXPROCS(0)))
	ref := spec.NewHostRef()
	sample := func() float64 {
		v := ref.Slowdown(o.mix.RefPasses)
		ep.Slowdown = append(ep.Slowdown, v)
		return v
	}
	meter := &hostMeter{ref: ref}

	// Set up several times; only the last server takes the load.
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	host := sample()
	for i := 0; i < o.mix.Setups; i++ {
		if srv != nil {
			if _, err := srv.stop(); err != nil {
				return ep, err
			}
		}
		begin := time.Now()
		if srv, err = startServer(ctx, o.bin, o.mix.Size, seedArg, ckpt); err != nil {
			return ep, err
		}
		if err := srv.waitReady(ctx, client); err != nil {
			return ep, err
		}
		for _, rq := range warm {
			if sp := do(ctx, client, srv.base, rq, nil); !sp.ok() {
				return ep, fmt.Errorf("warm-up query: status %d %s", sp.Status, sp.Err)
			}
		}
		wall := time.Since(begin).Seconds()
		next := sample()
		ep.SetupS = append(ep.SetupS, wall/((host+next)/2))
		host = next
	}

	// Output checks before anything is timed.
	body, _ := json.Marshal(map[string]any{"checkpoint": ckpt, "batches": 4})
	var ppl struct {
		LossText string `json:"loss_text"`
	}
	var blob []byte
	if sp := do(ctx, client, srv.base, request{path: "/v1/perplexity", body: body}, &blob); !sp.ok() {
		return ep, fmt.Errorf("perplexity query: status %d %s", sp.Status, sp.Err)
	}
	if err := json.Unmarshal(blob, &ppl); err != nil {
		return ep, fmt.Errorf("perplexity response: %w", err)
	}
	if want := strings.TrimSpace(string(offline)); ppl.LossText != want {
		ep.Problems = append(ep.Problems, fmt.Sprintf("served loss_text %q, offline %q", ppl.LossText, want))
	}
	first := make([][]byte, len(hot))
	for i, rq := range hot {
		var again []byte
		miss := do(ctx, client, srv.base, rq, &first[i])
		hit := do(ctx, client, srv.base, rq, &again)
		if !miss.ok() || !hit.ok() || miss.Cache != "miss" || hit.Cache != "hit" || !bytes.Equal(first[i], again) {
			ep.Problems = append(ep.Problems, fmt.Sprintf(
				"hot query %d: X-Cache %q then %q, status %d then %d, identical bytes %v",
				i, miss.Cache, hit.Cache, miss.Status, hit.Status, bytes.Equal(first[i], again)))
		}
	}
	var models struct {
		Models []struct {
			ResidentBytes int64 `json:"resident_bytes"`
		} `json:"models"`
	}
	if blob, err = get(ctx, client, srv.base+"/v1/models"); err != nil {
		return ep, err
	}
	if err := json.Unmarshal(blob, &models); err != nil {
		return ep, fmt.Errorf("/v1/models response: %w", err)
	}
	if len(models.Models) != 1 {
		return ep, fmt.Errorf("/v1/models lists %d snapshots, want 1", len(models.Models))
	}
	ep.StateBytes = models.Models[0].ResidentBytes

	// The phases.
	var all []span
	var before promSample
	for i, rate := range o.mix.Rates {
		if o.trace != "" {
			if before, err = scrape(ctx, client, srv.base); err != nil {
				return ep, err
			}
		}
		spans, staleHot, windowS := runPhase(ctx, client, srv.base, phases[i], rate, first, meter)
		if err := ctx.Err(); err != nil {
			return ep, err
		}
		for _, sp := range spans {
			ep.Slowdown = append(ep.Slowdown, sp.Slowdown)
		}
		tag := o.mix.Tag(i)
		if staleHot > 0 {
			ep.Problems = append(ep.Problems, fmt.Sprintf("%s: %d hot responses differ from their first compute", tag, staleHot))
		}
		summarizePhase(&ep, o.mix, i, spans, windowS)
		if o.trace != "" {
			after, err := scrape(ctx, client, srv.base)
			if err != nil {
				return ep, err
			}
			summarizeServer(&ep, tag, before, after)
		}
		all = append(all, spans...)
	}
	var zeroShot []float64
	for _, sp := range all {
		if sp.ok() && sp.Class == classZeroShot {
			zeroShot = append(zeroShot, sp.latencyMS())
		}
	}
	ep.Layer["serve.zeroshot_ms_p50"] = spec.Median(zeroShot)

	rss, err := srv.stop()
	srv = nil
	if err != nil {
		return ep, err
	}
	ep.PeakRSSKB = rss
	if o.trace != "" {
		if err := spec.WriteJSONL(o.trace, all); err != nil {
			return ep, err
		}
	}
	return ep, nil
}

// generator makes request bodies from the seed alone.
type generator struct {
	mix  spec.ServeMix
	rng  *rand.Rand
	ckpt string
}

func newGenerator(mix spec.ServeMix, seed uint64, ckpt string) *generator {
	return &generator{mix: mix, rng: rand.New(rand.NewPCG(seed, 0x5e77e)), ckpt: ckpt}
}

func (g *generator) ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = g.rng.IntN(spec.Vocab)
	}
	return out
}

func (g *generator) logProb() request {
	body, _ := json.Marshal(map[string]any{
		"checkpoint": g.ckpt, "context": g.ints(g.mix.Context), "option": g.ints(g.mix.Option),
	})
	return request{class: classLogProb, path: "/v1/logprob", body: body, tokens: g.mix.Context + g.mix.Option}
}

func (g *generator) zeroShot() request {
	type item struct {
		Context []int   `json:"context"`
		Options [][]int `json:"options"`
		Answer  int     `json:"answer"`
	}
	items := make([]item, g.mix.Items)
	for i := range items {
		items[i].Context = g.ints(g.mix.ItemContext)
		for o := 0; o < g.mix.Opts; o++ {
			items[i].Options = append(items[i].Options, g.ints(g.mix.ItemOption))
		}
		items[i].Answer = g.rng.IntN(g.mix.Opts)
	}
	body, _ := json.Marshal(map[string]any{"checkpoint": g.ckpt, "items": items})
	return request{
		class: classZeroShot, path: "/v1/zeroshot", body: body,
		tokens: g.mix.Items * g.mix.Opts * (g.mix.ItemContext + g.mix.ItemOption),
	}
}

// phase makes n requests of the mix. Classes are dealt in shuffled blocks of
// ten, so every seed offers the same share of each class and only the order
// and the content change.
func (g *generator) phase(n int, hot []request) []request {
	zero := int(g.mix.ZeroShare*10 + 0.5)
	hots := int(g.mix.HotShare*10 + 0.5)
	block := make([]string, 10)
	for i := range block {
		switch {
		case i < zero:
			block[i] = classZeroShot
		case i < zero+hots:
			block[i] = classHot
		default:
			block[i] = classLogProb
		}
	}
	out := make([]request, 0, n)
	for len(out) < n {
		g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, class := range block {
			if len(out) == n {
				break
			}
			switch class {
			case classZeroShot:
				out = append(out, g.zeroShot())
			case classHot:
				out = append(out, hot[g.rng.IntN(len(hot))])
			default:
				out = append(out, g.logProb())
			}
		}
	}
	return out
}

// server is a running apollo-serve subprocess.
type server struct {
	cmd  *exec.Cmd
	base string
	logs bytes.Buffer
}

// startServer picks a free port and starts apollo-serve on it with default
// flags, the checkpoint preloaded.
func startServer(ctx context.Context, bin, size, seed, ckpt string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr}
	s.cmd = exec.CommandContext(ctx, filepath.Join(bin, "apollo-serve"), "-size", size, "-seed", seed, "-addr", addr, ckpt)
	s.cmd.Stdout, s.cmd.Stderr = &s.logs, &s.logs
	// On cancellation ask for the drain the service implements; WaitDelay
	// kills a server that ignores it.
	s.cmd.Cancel = func() error { return s.cmd.Process.Signal(syscall.SIGTERM) }
	s.cmd.WaitDelay = 10 * time.Second
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("apollo-serve: %w", err)
	}
	return s, nil
}

// waitReady polls /readyz until the preloaded snapshot answers 200.
func (s *server) waitReady(ctx context.Context, client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := get(ctx, client, s.base+"/readyz"); err == nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("apollo-serve not ready after 30s:\n%s", s.logs.String())
}

// stop drains the server with SIGTERM, waits for it to exit and returns its
// peak resident set in KiB.
func (s *server) stop() (int64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.cmd.Process.Kill()
	}
	timer := time.AfterFunc(15*time.Second, func() { s.cmd.Process.Kill() })
	err := s.cmd.Wait()
	timer.Stop()
	if err != nil {
		return 0, fmt.Errorf("apollo-serve did not drain cleanly: %w\n%s", err, s.logs.String())
	}
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("apollo-serve: no rusage")
	}
	return ru.Maxrss, nil
}

// do sends one request and fills the span's status and headers; blob, when
// not nil, receives the response body.
func do(ctx context.Context, client *http.Client, base string, rq request, blob *[]byte) span {
	sp := span{Class: rq.class, tokens: rq.tokens}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		sp.Err = err.Error()
		return sp
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		sp.Err = err.Error()
		return sp
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		sp.Err = err.Error()
		return sp
	}
	sp.Status = resp.StatusCode
	sp.Cache = resp.Header.Get("X-Cache")
	sp.RequestID = resp.Header.Get("X-Request-Id")
	if blob != nil {
		*blob = data
	}
	return sp
}

// get returns the body of a GET that answered 200.
func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// hostMeter keeps sampling the host reference in the gaps of the open loop:
// whenever no request is in flight and the next one is not yet nearly due.
// The server is idle then, so a sample costs no request anything, and at 36
// requests/s the gaps still cover about half of the phase.
type hostMeter struct {
	ref      *spec.HostRef
	inflight atomic.Int32
	nextDue  atomic.Int64 // UnixNano
	mu       sync.Mutex
	at       []time.Time
	slow     []float64
}

const (
	meterPasses = 2                    // about 1.5 ms nominal per sample
	meterMargin = 8 * time.Millisecond // no sample starts this close to a due time
)

// run samples until ctx ends.
func (m *hostMeter) run(ctx context.Context) {
	for ctx.Err() == nil {
		if m.inflight.Load() > 0 || time.Until(time.Unix(0, m.nextDue.Load())) < meterMargin {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		v := m.ref.Slowdown(meterPasses)
		m.mu.Lock()
		m.at, m.slow = append(m.at, time.Now()), append(m.slow, v)
		m.mu.Unlock()
	}
}

// reading returns the median sample between from and to, the interval
// widened on both sides until it holds at least nine samples.
func (m *hostMeter) reading(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.at) == 0 {
		return 1
	}
	for widen := 50 * time.Millisecond; ; widen *= 2 {
		lo, _ := slices.BinarySearchFunc(m.at, from.Add(-widen), time.Time.Compare)
		hi, _ := slices.BinarySearchFunc(m.at, to.Add(widen), time.Time.Compare)
		if hi-lo >= 9 || hi-lo == len(m.at) {
			return spec.Median(m.slow[lo:hi])
		}
	}
}

// runPhase offers reqs open-loop at rate requests per nominal second:
// request i is due one nominal interval after request i-1, by the meter's
// reading of the last quarter second, and is sent then whether or not
// earlier ones have finished, as independent users would. Latency counts
// from the due time, so a stall is charged to every request it delays. It
// returns when the last response is in, with the spans, how many hot
// responses were not the bytes of their first compute, and the nominal
// seconds from the first due time to the last completion.
func runPhase(ctx context.Context, client *http.Client, base string, reqs []request, rate float64, first [][]byte, meter *hostMeter) ([]span, int, float64) {
	spans := make([]span, len(reqs))
	stale := make([]bool, len(reqs))
	sent := make([]time.Time, len(reqs))
	done := make([]time.Time, len(reqs))
	dues := make([]time.Time, len(reqs))

	// The meter gets a quarter second to itself before the first request.
	metering, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	due := time.Now().Add(250 * time.Millisecond)
	meter.nextDue.Store(due.UnixNano())
	wg.Add(1)
	go func() {
		defer wg.Done()
		meter.run(metering)
	}()
	for i := range reqs {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if ctx.Err() != nil {
			break
		}
		dues[i], sent[i] = due, time.Now()
		host := meter.reading(sent[i].Add(-250*time.Millisecond), sent[i])
		gap := time.Duration(host / rate * float64(time.Second))
		due = due.Add(gap)
		meter.inflight.Add(1)
		meter.nextDue.Store(due.UnixNano())
		wg.Add(1)
		go func() {
			defer wg.Done()
			var blob []byte
			spans[i] = do(ctx, client, base, reqs[i], &blob)
			done[i] = time.Now()
			meter.inflight.Add(-1)
			if reqs[i].class == classHot && spans[i].ok() {
				stale[i] = spans[i].Cache != "hit" || !bytes.Equal(blob, first[reqs[i].hot])
			}
		}()
	}
	// The meter runs on for as long as the last interval, then stops, so the
	// last requests have samples on both sides too.
	if d := time.Until(due); d > 0 && ctx.Err() == nil {
		time.Sleep(d)
	}
	stop()
	wg.Wait()

	n, windowS := 0, 0.0
	ms := func(t time.Time) float64 { return t.Sub(dues[0]).Seconds() * 1e3 }
	for i := range spans {
		if done[i].IsZero() {
			continue // cancelled before it was sent
		}
		sp := &spans[i]
		sp.Rate, sp.Seq, sp.DueMS, sp.SentMS, sp.DoneMS = rate, i, ms(dues[i]), ms(sent[i]), ms(done[i])
		sp.Slowdown = meter.reading(dues[i], done[i])
		if stale[i] {
			n++
		}
		// Request i is due i nominal intervals into the phase.
		windowS = max(windowS, float64(i)/rate+sp.latencyMS()/1e3)
	}
	return spans, n, windowS
}

// summarizePhase folds one phase's spans into the episode: the counts, the
// per-rate latency and lateness metrics, and the end-to-end latency samples
// when this is the end-to-end rate. windowS is the phase's nominal length,
// from the first due time of each slice to its last completion.
func summarizePhase(ep *spec.Episode, mix spec.ServeMix, phase int, spans []span, windowS float64) {
	tag, rate := mix.Tag(phase), mix.Rates[phase]
	var lat, logprob, hits, late []float64
	within, cached := 0, 0
	for _, sp := range spans {
		ep.Attempted++
		late = append(late, sp.latenessMS())
		if !sp.ok() {
			ep.Failed++
			continue
		}
		lat = append(lat, sp.latencyMS())
		if sp.latencyMS() <= mix.LimitMS {
			within++
			ep.Tokens += float64(sp.tokens)
		}
		switch {
		case sp.Class == classLogProb:
			logprob = append(logprob, sp.latencyMS())
		case sp.Cache == "hit":
			cached++
			hits = append(hits, sp.latencyMS())
		}
	}
	n := float64(len(spans))
	ep.WindowS += windowS
	if phase == mix.E2EPhase {
		ep.LatencyMS = logprob
	}
	p95 := spec.Quantile(lat, 0.95)
	lateP99 := spec.Quantile(late, 0.99)
	share := float64(within) / n
	achieved := n / windowS
	ep.Layer["serve.latency_ms_p50."+tag] = spec.Median(lat)
	ep.Layer["serve.latency_ms_p95."+tag] = p95
	ep.Layer["serve.logprob_ms_p50."+tag] = spec.Median(logprob)
	ep.Layer["serve.slo_share."+tag] = share
	ep.Layer["serve.gen_lateness_ms_p99."+tag] = lateP99
	ep.Notes = append(ep.Notes, fmt.Sprintf(
		"%s: sent %d ok %d failed %d, %.1f%% within %.0f ms, achieved %.1f of %.0f rps, p50 %.1f p95 %.1f ms, generator p99 lateness %.2f ms",
		tag, len(spans), len(lat), len(spans)-len(lat), share*100, mix.LimitMS, achieved, rate, spec.Median(lat), p95, lateP99))
	if lateP99 > p95 {
		ep.Notes = append(ep.Notes, tag+": FLAG generator p99 lateness exceeds p95 latency; this phase measures the generator")
	}
	// The highest rate that holds the limit for 99% of requests sent, with
	// no growing backlog. Rates ascend, so a later phase overwrites.
	if share >= 0.99 && achieved >= 0.98*rate {
		ep.Layer["serve.slo_rate_rps"] = rate
	}
	if phase == mix.E2EPhase {
		ep.Layer["serve.cache_hit_ms_p50"] = spec.Median(hits)
		ep.Layer["serve.cache_hit_rate"] = float64(cached) / n
	}
}

// promSample is one scrape of /metrics: sample line name (with labels) →
// value.
type promSample map[string]float64

func scrape(ctx context.Context, client *http.Client, base string) (promSample, error) {
	body, err := get(ctx, client, base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := promSample{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// histogramDelta returns the upper bounds and per-bucket counts a histogram
// gained between two scrapes.
func histogramDelta(name string, before, after promSample) (le, count []float64) {
	prefix := name + `_bucket{le="`
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for key, v := range after {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		bound := strings.TrimSuffix(strings.TrimPrefix(key, prefix), `"}`)
		if bound == "+Inf" {
			continue
		}
		b, err := strconv.ParseFloat(bound, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{b, v - before[key]})
	}
	slices.SortFunc(bs, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
	prev := 0.0
	for _, b := range bs {
		le = append(le, b.le)
		count = append(count, b.cum-prev)
		prev = b.cum
	}
	return le, count
}

// summarizeServer turns the /metrics change over one phase into the
// server-side per-layer metrics. Quantiles carry the histogram's bucket
// resolution: the value is the upper bound of the bucket the quantile is in.
func summarizeServer(ep *spec.Episode, tag string, before, after promSample) {
	delta := func(key string) float64 { return after[key] - before[key] }
	le, count := histogramDelta("apollo_serve_batch_queue_wait_seconds", before, after)
	total := delta("apollo_serve_batch_queue_wait_seconds_count")
	p95, cum := 0.0, 0.0
	for i := range le {
		cum += count[i]
		if cum >= 0.95*total {
			p95 = le[i] * 1e3
			break
		}
	}
	ep.Layer["serve.queue_wait_ms_p95."+tag] = p95

	// Batch shape and sheds accumulate over the phases.
	ep.Layer["serve.batched_forwards"] += delta("apollo_serve_batch_size_count")
	ep.Layer["serve.scored_units"] += delta("apollo_serve_batch_size_sum")
	if f := ep.Layer["serve.batched_forwards"]; f > 0 {
		ep.Layer["serve.mean_batch_size"] = ep.Layer["serve.scored_units"] / f
	}
	le, count = histogramDelta("apollo_serve_batch_size", before, after)
	for i := range le {
		if count[i] > 0 && le[i] > ep.Layer["serve.largest_batch"] {
			ep.Layer["serve.largest_batch"] = le[i]
		}
	}
	for key := range after {
		if strings.HasPrefix(key, "apollo_serve_shed_total") {
			ep.Layer["serve.shed_count"] += delta(key)
		}
	}
}
