package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"apollo/internal/memmodel"
	"apollo/internal/obs"
	"apollo/internal/obs/memprof"
	"apollo/internal/optim"
	"apollo/internal/train"
	"apollo/internal/zero"
)

// lastMemSample parses the final Sample of a memory-event stream.
func lastMemSample(t *testing.T, buf *bytes.Buffer) memprof.Sample {
	t.Helper()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty memory timeline")
	}
	var s memprof.Sample
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLiveStateMatchesMemmodel is the acceptance criterion of the live
// memory-accounting layer, the running-loop counterpart of
// TestMeasuredStateMatchesMemmodel's one-shot check: a short fused training
// run on the 60M proxy with a memory profiler attached must record
// optimizer-state bytes in its timeline within ±2% of the memmodel Table 1
// prediction (memmodel.LiveStateBytes), for every catalogue row with a
// memmodel row. The INT8 rows' scale groups round up per tensor, which
// moves their reading by under 0.1% — well inside the band.
func TestLiveStateMatchesMemmodel(t *testing.T) {
	proxy, err := ProxyByName("60M")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		if m.Mem == nil {
			continue
		}
		name := m.Name
		t.Run(name, func(t *testing.T) {
			model := proxy.NewProxyModel(3)
			rank := m.Rank(0, proxy.Model.Dim)
			opt := m.New(optim.Hyper{LR: proxy.LR}, rank, 7)
			corpus, err := NewCorpus(11)
			if err != nil {
				t.Fatal(err)
			}
			var mem bytes.Buffer
			mp := memprof.New(memprof.Config{Out: obs.NewJSONLWriter(&mem)})

			predicted := memmodel.LiveStateBytes(memmodel.ShapesOf(model.Params().List()), *m.Mem, rank)
			mp.Predict(memprof.CompOptimizerState, predicted)

			train.Pretrain(model, opt, corpus, train.PretrainConfig{
				Batch: proxy.Batch, Seq: proxy.Seq, Steps: 3, EvalBatches: 1, MemProf: mp,
			})

			s := lastMemSample(t, &mem)
			measured := float64(s.Components[memprof.CompOptimizerState])
			if dev := math.Abs(measured-predicted) / predicted; dev > 0.02 {
				t.Fatalf("%s: recorded %.0f state bytes vs predicted %.0f (%.2f%% off)",
					name, measured, predicted, dev*100)
			}
			// The timeline's own delta readout carries the same verdict.
			if d := s.DeltaFrac[memprof.CompOptimizerState]; math.Abs(d) > 0.02 {
				t.Fatalf("recorded delta_frac %.4f outside ±2%%", d)
			}
			if float64(s.TotalBytes) <= measured {
				t.Fatalf("total %d should include weights+grads beyond state %0.f", s.TotalBytes, measured)
			}
		})
	}
}

// TestLiveStateMatchesMemmodelZeRO repeats the acceptance check in the
// sharded world: a DP run of every catalogue row with a memmodel row, its
// state ZeRO-partitioned, must
// record per-shard components whose sum matches the unsharded memmodel
// prediction within ±2%, and each shard must match the
// ShardedOptimizerStateBytes per-replica figure.
func TestLiveStateMatchesMemmodelZeRO(t *testing.T) {
	const replicas = 3
	proxy, err := ProxyByName("60M")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		if m.Mem == nil {
			continue
		}
		name := m.Name
		t.Run(name, func(t *testing.T) {
			model := proxy.NewProxyModel(3)
			rank := m.Rank(0, proxy.Model.Dim)
			sharded := zero.NewSharded(m.New(optim.Hyper{LR: proxy.LR}, rank, 7), replicas)
			corpus, err := NewCorpus(11)
			if err != nil {
				t.Fatal(err)
			}
			var mem bytes.Buffer
			mp := memprof.New(memprof.Config{Out: obs.NewJSONLWriter(&mem)})

			predicted := memmodel.LiveStateBytes(memmodel.ShapesOf(model.Params().List()), *m.Mem, rank)

			train.DPPretrain(model, sharded, corpus, train.DPConfig{
				PretrainConfig: train.PretrainConfig{
					Batch: proxy.Batch, Seq: proxy.Seq, Steps: 3, EvalBatches: 1, MemProf: mp,
				},
				Replicas: replicas,
			})

			s := lastMemSample(t, &mem)
			var shardSum float64
			for i := 0; i < replicas; i++ {
				v, ok := s.Components[memprof.ShardComponent(i)]
				if !ok {
					t.Fatalf("missing %s: %v", memprof.ShardComponent(i), s.Components)
				}
				shardSum += float64(v)
			}
			if dev := math.Abs(shardSum-predicted) / predicted; dev > 0.02 {
				t.Fatalf("%s: shards record %.0f bytes vs predicted %.0f (%.2f%% off)",
					name, shardSum, predicted, dev*100)
			}
			// Each shard is near the analytic per-replica footprint (the
			// ShardedOptimizerStateBytes rule: unsharded state ÷ world).
			// Row-segment sharding is not perfectly even, so the per-shard
			// slack is wider than the summed check — but the balance must be
			// real.
			perReplica := predicted / replicas
			for i := 0; i < replicas; i++ {
				v := float64(s.Components[memprof.ShardComponent(i)])
				if dev := math.Abs(v-perReplica) / perReplica; dev > 0.25 {
					t.Fatalf("shard %d records %.0f bytes, per-replica prediction %.0f (%.0f%% off)",
						i, v, perReplica, dev*100)
				}
			}
		})
	}
}

// TestLentGradientLedger: memprof's grads is the gradient storage the loop
// holds, sampled after every step. On the 60M proxy's shapes the largest
// release group is one block (12,608 elements, against 8,224 for norm_f and
// the head and 8,192 for the embedding), so a fused APOLLO run, which lends
// each group's gradient from a ring of two slabs the size of the largest
// group, holds exactly 2 × 4 × 12,608 = 100,864 B at every sample; under
// -accum 2 or clipping the gradients stay resident, the whole model's 41,632
// elements, and the ledger reads 166,528 B. A lent run whose second batch
// has no target steps that batch's zero gradient from the ring as well.
func TestLentGradientLedger(t *testing.T) {
	const lent, resident = 100_864, 166_528
	proxy, err := ProxyByName("60M")
	if err != nil {
		t.Fatal(err)
	}
	c := proxy.Model
	block := 4*c.Dim*c.Dim + 3*c.Dim*c.Hidden + 2*c.Dim
	if largest := max(block, c.Dim+c.Vocab*c.Dim, c.Vocab*c.Dim); 2*4*largest != lent || 4*c.NumParams() != resident {
		t.Fatalf("60M proxy shapes moved: largest group %d, model %d elements", largest, c.NumParams())
	}
	apollo, err := MethodByName("APOLLO")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		accum  int
		clip   float64
		want   int64
		masked bool // the second batch has no target
	}{
		{"lent", 1, 0, lent, false},
		{"accum=2", 2, 0, resident, false},
		{"clipped", 1, 1, resident, false},
		{"lent/untargeted batch", 1, 0, lent, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := proxy.NewProxyModel(3)
			opt := apollo.New(optim.Hyper{LR: proxy.LR}, apollo.Rank(0, c.Dim), 7)
			corpus, err := NewCorpus(11)
			if err != nil {
				t.Fatal(err)
			}
			if tc.masked {
				maskSecondBatch(corpus)
			}
			var mem bytes.Buffer
			mp := memprof.New(memprof.Config{Out: obs.NewJSONLWriter(&mem)})
			train.Pretrain(model, opt, corpus, train.PretrainConfig{
				Batch: 2, Seq: 16, Steps: 3, EvalBatches: 1, Accum: tc.accum, ClipNorm: tc.clip, MemProf: mp,
			})
			lines := strings.Split(strings.TrimRight(mem.String(), "\n"), "\n")
			if len(lines) != 3 {
				t.Fatalf("%d mem samples, want one per step", len(lines))
			}
			for i, line := range lines {
				var s memprof.Sample
				if err := json.Unmarshal([]byte(line), &s); err != nil {
					t.Fatal(err)
				}
				if got := s.Components[memprof.CompGrads]; got != tc.want {
					t.Fatalf("step %d: grads %d B, want %d", i+1, got, tc.want)
				}
			}
		})
	}
}
