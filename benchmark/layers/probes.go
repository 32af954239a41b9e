package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"apollo/benchmark/spec"
	"apollo/internal/bench"
	"apollo/internal/ckpt"
	"apollo/internal/core"
	"apollo/internal/data"
	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/obs"
	"apollo/internal/optim"
	rt "apollo/internal/runtime"
	"apollo/internal/serve"
	"apollo/internal/tensor"
	"apollo/internal/train"
	"apollo/internal/zero"
)

// probeFor is how long one probe keeps sampling; -tiny cuts it down.
var probeFor = 150 * time.Millisecond

// medianSeconds calls f until it has run at least five times and for
// probeFor, and returns the median duration of a call.
func medianSeconds(f func()) float64 {
	var samples []float64
	begin := time.Now()
	for len(samples) < 5 || time.Since(begin) < probeFor {
		t := time.Now()
		f()
		samples = append(samples, time.Since(t).Seconds())
	}
	return spec.Median(samples)
}

// medianSecondsOf is medianSeconds for a call that can fail: it stops calling
// f at the first error and returns it.
func medianSecondsOf(f func() error) (float64, error) {
	var err error
	seconds := medianSeconds(func() {
		if err == nil {
			err = f()
		}
	})
	return seconds, err
}

func randomSlice(n int, rng *tensor.RNG) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.Intn(2001)-1000) / 1000
	}
	return out
}

// probeKernels times the three matmul kernels at the workload's MLP-up
// shape, as Linear issues them: MatMulT is its forward, TMatMul its weight
// gradient, MatMul its input gradient.
func probeKernels(layer map[string]float64, rows, in, out int) {
	rng := tensor.NewRNG(1)
	x, w, dy := randomSlice(rows*in, rng), randomSlice(out*in, rng), randomSlice(rows*out, rng)
	y, dw, dx := make([]float32, rows*out), make([]float32, out*in), make([]float32, rows*in)
	gflop := 2 * float64(rows) * float64(in) * float64(out) / 1e9
	forward := func() { rt.MatMulT(y, x, w, rows, in, out) }

	parallel := medianSeconds(forward)
	layer["runtime.matmult_gflops"] = gflop / parallel
	layer["runtime.tmatmul_gflops"] = gflop / medianSeconds(func() { rt.TMatMul(dw, dy, x, rows, out, in) })
	layer["runtime.matmul_gflops"] = gflop / medianSeconds(func() { rt.MatMul(dx, dy, w, rows, out, in) })

	workers := rt.Workers()
	rt.SetWorkers(1)
	serial := medianSeconds(forward)
	rt.SetWorkers(workers)
	layer["runtime.parallel_speedup"] = serial / parallel
	layer["runtime.forrange_dispatch_us"] = medianSeconds(func() { rt.ForRange(workers, 1, func(int, int) {}) }) * 1e6

	// Computed from the shape, not measured: what one such call must do.
	layer["runtime.kernel_mflop_computed"] = gflop * 1e3
	layer["runtime.kernel_kb_moved_computed"] = 4 * float64(rows*in+out*in+rows*out) / 1024
}

// probeModel times the model's passes on one batch of the workload's shape
// and counts what a forward+backward allocates. It leaves the batch's
// gradients in the parameters for the optimizer probes. timePasses is for
// workloads that have no hand-driven loop to take the pass times from.
func probeModel(layer map[string]float64, model *nn.Model, corpus *data.Corpus, batch, seq int, timePasses bool) {
	b := corpus.ValBatch(0, batch, seq)
	var dlogits *tensor.Matrix
	forward := func() {
		model.Params().ZeroGrad()
		_, dlogits = nn.CrossEntropy(model.Forward(b.Tokens, b.B, b.T), b.Targets, -1)
	}
	backward := func() { model.Backward(dlogits) }
	forward()
	backward()

	const calls = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		forward()
		backward()
	}
	runtime.ReadMemStats(&after)
	layer["nn.fwdbwd_allocs"] = float64(after.Mallocs-before.Mallocs) / calls
	layer["nn.fwdbwd_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / calls / (1 << 20)

	if timePasses {
		var fwd, bwd []float64
		for i := 0; i < 7; i++ {
			t := time.Now()
			forward()
			mid := time.Now()
			backward()
			fwd = append(fwd, mid.Sub(t).Seconds()*1e3)
			bwd = append(bwd, time.Since(mid).Seconds()*1e3)
		}
		// Cross-entropy is charged to backward, as the phase recorder does.
		layer["nn.forward_ms"] = spec.Median(fwd)
		layer["nn.backward_ms"] = spec.Median(bwd)
	}
	layer["nn.eval_forward_ms"] = medianSeconds(func() { model.EvalLoss(b.Tokens, b.Targets, b.B, b.T) }) * 1e3
	forward()
	backward()
}

// probeOptimizers times one step of five zoo members on the workload model's
// gradients: the paper's Table 7 comparison.
func probeOptimizers(layer map[string]float64, model *nn.Model, w spec.Train, seed uint64) {
	h := optim.Hyper{LR: w.LR}
	zoo := []struct {
		prefix, name string
		opt          optim.Optimizer
	}{
		{"optim", "AdamW", optim.NewAdamW(h)},
		{"optim", "SGD", optim.NewSGD(h, 0)},
		{"optim", "GaLore", optim.NewGaLore(h, optim.LowRankConfig{
			Rank: w.Rank, Projection: linalg.SVDProjection, Seed: seed, Scale: 0.25, UpdateGap: 50})},
		{"core", "APOLLO", core.New(h, core.Config{Rank: w.Rank, UpdateGap: 50, Seed: seed})},
		{"core", "APOLLO-Mini", core.NewMini(h)},
	}
	params := model.Params().List()
	n := float64(model.Params().NumParams())
	const steps = 8
	for _, z := range zoo {
		// Lazy state and the first projector refresh happen here.
		z.opt.Step(params)
		z.opt.Step(params)
		var before, after runtime.MemStats
		var samples []float64
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			t := time.Now()
			z.opt.Step(params)
			samples = append(samples, float64(time.Since(t).Nanoseconds()))
		}
		runtime.ReadMemStats(&after)
		layer[z.prefix+".step_ns_per_param."+z.name] = spec.Median(samples) / n
		layer[z.prefix+".step_allocs."+z.name] = float64(after.Mallocs-before.Mallocs) / steps
		layer[z.prefix+".step_alloc_kb."+z.name] = float64(after.TotalAlloc-before.TotalAlloc) / steps / 1024
	}
	layer["core.apollo_over_adamw_step_ratio"] = layer["core.step_ns_per_param.APOLLO"] / layer["optim.step_ns_per_param.AdamW"]
}

// probeProjection times the projector on a gradient of the MLP-up shape.
func probeProjection(layer map[string]float64, w spec.Train) {
	g := tensor.NewMatrixRand(w.Model.Dim, w.Model.Hidden, 1, tensor.NewRNG(2))
	random := linalg.NewProjector(linalg.RandomProjection, w.Rank, 3)
	layer["linalg.refresh_random_ms"] = medianSeconds(func() { random.Refresh(g) }) * 1e3
	layer["linalg.project_ms"] = medianSeconds(func() { random.Project(g) }) * 1e3
	svd := linalg.NewProjector(linalg.SVDProjection, w.Rank, 0)
	layer["linalg.refresh_svd_ms"] = medianSeconds(func() { svd.Refresh(g) }) * 1e3
}

// probeShardStep times one owner's share of the sharded optimizer step.
func probeShardStep(layer map[string]float64, model *nn.Model, w spec.Train, seed uint64) {
	sharded, ok := w.NewOptimizer(seed).(*zero.Sharded)
	if !ok {
		return
	}
	params := model.Params().List()
	sharded.Step(params)
	sharded.Step(params)
	layer["zero.step_shard_ms"] = medianSeconds(func() { sharded.StepShard(0) }) * 1e3
}

// probeObs times the two calls the instrumentation cost contract is about:
// an observation on a live histogram, and one on a nil handle, which is how
// every instrumented path runs when metrics are off.
func probeObs(layer map[string]float64) {
	const calls = 1 << 18
	live := obs.NewRegistry().Histogram("bench_probe_seconds", "Probe.", obs.LatencyBuckets)
	var off *obs.Histogram
	perCall := func(h *obs.Histogram) float64 {
		return medianSeconds(func() {
			for i := 0; i < calls; i++ {
				h.Observe(0.003)
			}
		}) / calls * 1e9
	}
	layer["obs.histogram_observe_ns"] = perCall(live)
	layer["obs.nil_handle_ns"] = perCall(off)
}

// probeCheckpoint times capture, save, full load and weights-only load of
// the model with the optimizer's state, and removes the file again.
func probeCheckpoint(layer map[string]float64, model *nn.Model, opt optim.Optimizer, corpus *data.Corpus, tmp string) error {
	path, err := saveProbeCheckpoint(layer, model, opt, corpus, tmp)
	if err != nil {
		return err
	}
	return os.Remove(path)
}

func saveProbeCheckpoint(layer map[string]float64, model *nn.Model, opt optim.Optimizer, corpus *data.Corpus, tmp string) (string, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(tmp, "probe-*.ckpt")
	if err != nil {
		return "", err
	}
	path := f.Name()
	if err := f.Close(); err != nil {
		return "", err
	}
	params := model.Params().List()
	opt.Step(params) // state exists from the first step on

	var st *ckpt.State
	capture, err := medianSecondsOf(func() (err error) {
		st, err = ckpt.Capture(1, params, opt, corpus)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("ckpt.Capture: %w", err)
	}
	save, err := medianSecondsOf(func() error { return ckpt.SaveFile(path, st) })
	if err != nil {
		return "", fmt.Errorf("ckpt.SaveFile: %w", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	load, err := medianSecondsOf(func() error { _, err := ckpt.LoadFile(path); return err })
	if err != nil {
		return "", fmt.Errorf("ckpt.LoadFile: %w", err)
	}
	loadModel, err := medianSecondsOf(func() error { _, err := ckpt.LoadModelFile(path); return err })
	if err != nil {
		return "", fmt.Errorf("ckpt.LoadModelFile: %w", err)
	}
	mb := float64(info.Size()) / (1 << 20)
	layer["ckpt.capture_ms"] = capture * 1e3
	layer["ckpt.file_bytes"] = float64(info.Size())
	layer["ckpt.save_mb_per_s"] = mb / save
	layer["ckpt.load_mb_per_s"] = mb / load
	layer["ckpt.load_model_mb_per_s"] = mb / loadModel
	return path, nil
}

// serveLayers probes the serve path below HTTP: snapshot acquire, a direct
// Entry.LogProb, and the eval forwards behind a single query and a full
// batch.
func serveLayers(ep *spec.Episode, mix spec.ServeMix, seed uint64, tmp string) error {
	proxy, err := bench.ProxyByName(mix.Size)
	if err != nil {
		return err
	}
	corpus, err := bench.NewCorpus(seed + 17)
	if err != nil {
		return err
	}
	model := proxy.NewProxyModel(seed)
	opt := optim.NewAdamW(optim.Hyper{LR: proxy.LR})
	train.Pretrain(model, opt, corpus, train.PretrainConfig{Batch: proxy.Batch, Seq: proxy.Seq, Steps: mix.TrainSteps})
	path, err := saveProbeCheckpoint(ep.Layer, model, opt, corpus, filepath.Join(tmp, "layers"))
	if err != nil {
		return err
	}
	defer os.Remove(path)

	var entry *serve.Entry
	var acquire []float64
	for i := 0; i < 5; i++ {
		reg, err := serve.NewRegistry(serve.Config{Model: proxy.Model, Corpus: corpus})
		if err != nil {
			return err
		}
		t := time.Now()
		if entry, err = reg.Acquire(path); err != nil {
			return err
		}
		acquire = append(acquire, time.Since(t).Seconds()*1e3)
	}
	ep.Layer["serve.acquire_ms"] = spec.Median(acquire)

	rng := tensor.NewRNG(seed)
	tokens := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(spec.Vocab)
		}
		return out
	}
	// Nominal, like the HTTP latency it is subtracted from: the host
	// reference is sampled on both sides of the probe.
	ref := spec.NewHostRef()
	host := ref.Slowdown(mix.RefPasses)
	direct, err := medianSecondsOf(func() error {
		_, err := entry.LogProb(tokens(mix.Context), tokens(mix.Option))
		return err
	})
	if err != nil {
		return fmt.Errorf("Entry.LogProb: %w", err)
	}
	host = (host + ref.Slowdown(mix.RefPasses)) / 2
	ep.Slowdown = append(ep.Slowdown, host)
	ep.Layer["serve.logprob_direct_ms"] = direct * 1e3 / host

	one := mix.Context + mix.Option
	single, full := tokens(one), tokens(8*one/2)
	ep.Layer["nn.eval_forward_ms"] = medianSeconds(func() { model.Forward(single, 1, one) }) * 1e3
	ep.Layer["nn.eval_forward8_ms"] = medianSeconds(func() { model.Forward(full, 8, one/2) }) * 1e3
	probeKernels(ep.Layer, one, proxy.Model.Dim, proxy.Model.Hidden)
	probeObs(ep.Layer)
	return nil
}
