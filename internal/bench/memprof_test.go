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

// fpMemRows is the catalogue rows whose live fp32 state memmodel prices in
// elements: a memmodel row, and not the INT8 members' one byte per code.
func fpMemRows() []Method {
	var rows []Method
	for _, m := range Methods() {
		if m.Mem != nil && m.Mem.StateBytesPer >= memmodel.BytesBF16 {
			rows = append(rows, m)
		}
	}
	return rows
}

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
// prediction, for every catalogue row with fp32 state and a memmodel row.
func TestLiveStateMatchesMemmodel(t *testing.T) {
	proxy, err := ProxyByName("60M")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range fpMemRows() {
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

			predicted := memmodel.StateElems(ShapesOf(model.Params().List()), *m.Mem, rank) * memmodel.BytesFP32
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
// sharded world: a DP run with ZeRO-partitioned AdamW and APOLLO state must
// record per-shard components whose sum matches the unsharded memmodel
// prediction within ±2%, and each shard must match the
// ShardedOptimizerStateBytes per-replica figure.
func TestLiveStateMatchesMemmodelZeRO(t *testing.T) {
	const replicas = 3
	proxy, err := ProxyByName("60M")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range fpMemRows() {
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

			predicted := memmodel.StateElems(ShapesOf(model.Params().List()), *m.Mem, rank) * memmodel.BytesFP32

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
// holds, sampled after every step. On the 7B proxy's shapes the largest
// group is one block (197,888 elements), so a fused APOLLO run, which lends
// each group's gradient from a ring of two block-sized slabs, holds exactly
// 2 × 4 × 197,888 = 1,583,104 B at every sample; under -accum 2 or clipping
// the gradients stay resident, the whole model's 1,252,992 elements, and the
// ledger reads 5,011,968 B.
func TestLentGradientLedger(t *testing.T) {
	const lent, resident = 1_583_104, 5_011_968
	proxy, err := ProxyByName("7B")
	if err != nil {
		t.Fatal(err)
	}
	c := proxy.Model
	if block := 4*c.Dim*c.Dim + 3*c.Dim*c.Hidden + 2*c.Dim; 2*4*block != lent || 4*c.NumParams() != resident {
		t.Fatalf("7B proxy shapes moved: block %d, model %d elements", block, c.NumParams())
	}
	apollo, err := MethodByName("APOLLO")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		accum int
		clip  float64
		want  int64
	}{
		{"lent", 1, 0, lent},
		{"accum=2", 2, 0, resident},
		{"clipped", 1, 1, resident},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := proxy.NewProxyModel(3)
			opt := apollo.New(optim.Hyper{LR: proxy.LR}, apollo.Rank(0, c.Dim), 7)
			corpus, err := NewCorpus(11)
			if err != nil {
				t.Fatal(err)
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
