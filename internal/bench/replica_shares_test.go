package bench

import (
	"fmt"
	"reflect"
	"testing"

	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
	"apollo/internal/zero"
)

// stepOnce fills every gradient from a fixed stream and steps opt once, so
// the state behind every parameter is allocated.
func stepOnce(opt optim.Optimizer, ps []*nn.Param) {
	rng := tensor.NewRNG(13)
	for _, p := range ps {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat32() * 0.05
		}
	}
	opt.Step(ps)
}

// TestReplicaSharesAreExact pins how zero.Sharded charges a row-split
// parameter: each unit is charged its share (Row1−Row0)/Rows of the
// parameter's state, which is exact only because a split parameter's state is
// row-aligned. (a) Over the catalogue, every split parameter's measured bytes
// divide by its row count, at shard counts that do not divide the rows. (b)
// The per-replica bytes of the data-parallel ZeRO benchmark model after one
// step: the fp32 rows recorded before the split units stopped being stepped
// as views of their own, and 8-bit GaLore's, whose INT8 codes and fp32
// projections balance only because units are weighed by the bytes they are
// charged.
func TestReplicaSharesAreExact(t *testing.T) {
	for _, m := range Methods() {
		for _, n := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", m.Name, n), func(t *testing.T) {
				ps := shardParityParams()
				sh := zero.NewSharded(m.New(optim.Hyper{LR: 0.01, WeightDecay: 0.1}, m.Rank(4, 16), 11), n)
				stepOnce(sh, ps)
				for s := 0; s < sh.Shards(); s++ {
					for _, seg := range sh.OwnedSegments(s) {
						p := ps[seg.Param]
						if seg.Row1-seg.Row0 == p.W.Rows {
							continue
						}
						rows := int64(p.W.Rows)
						if b := sh.StateBytesFor(p); b%rows != 0 {
							t.Errorf("split %s (%d rows) holds %d bytes", p.Name, rows, b)
						}
					}
				}
			})
		}
	}

	cfg := nn.Config{Vocab: 256, Dim: 96, Hidden: 256, Heads: 6, Layers: 5, MaxSeq: 128}
	for _, c := range []struct {
		method string
		rank   int
		shards int
		want   []int64
	}{
		{"APOLLO", 24, 2, []int64{755848, 752016}},
		{"AdamW", 0, 3, []int64{1608704, 1608704, 1607936}},
		{"Adam-mini", 0, 4, []int64{608748, 608748, 608748, 608360}},
		{"8-bit GaLore", 24, 3, []int64{237216, 237016, 237024}},
	} {
		m, err := MethodByName(c.method)
		if err != nil {
			t.Fatal(err)
		}
		ps := nn.NewModel(cfg, tensor.NewRNG(1)).Params().List()
		sh := zero.NewSharded(m.New(optim.Hyper{LR: 2e-3}, c.rank, 1), c.shards)
		stepOnce(sh, ps)
		if got := sh.ReplicaStateBytes(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s at %d shards: replicas hold %v bytes, want %v", c.method, c.shards, got, c.want)
		}
	}
}
