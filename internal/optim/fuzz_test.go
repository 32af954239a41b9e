package optim_test

import (
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"apollo/internal/core"
	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/optim/optimtest"
	"apollo/internal/tensor"
)

// fuzzZoo builds every member of the zoo — each Schema in optim and core,
// both projection kinds, every Factorized mode, and the nesting wrapper over
// an fp32 and an INT8 inner — at the configuration of the golden runs.
var fuzzZoo = func() []func() optim.Optimizer {
	h := optim.Hyper{LR: 0.01, WeightDecay: 0.1}
	svd := optim.LowRankConfig{Rank: 4, UpdateGap: 3, Seed: 21, Projection: linalg.SVDProjection}
	rp := svd
	rp.Projection = linalg.RandomProjection
	factorized := func(mode optim.FactorizedMode) func() optim.Optimizer {
		return func() optim.Optimizer {
			return optim.NewFactorized(h, optim.FactorizedConfig{Mode: mode, Rank: 4, MergeEvery: 3, Seed: 21})
		}
	}
	return []func() optim.Optimizer{
		func() optim.Optimizer { return optim.NewAdamW(h) },
		func() optim.Optimizer { return optim.NewSGD(h, 0) },
		func() optim.Optimizer { return optim.NewSGD(h, 0.9) },
		func() optim.Optimizer { return optim.NewAdamMini(h) },
		func() optim.Optimizer { return optim.NewAdam8bit(h, 21) },
		func() optim.Optimizer { return optim.NewGaLore8bit(h, svd) },
		func() optim.Optimizer { return optim.NewGaLore8bit(h, rp) },
		factorized(optim.ModeLowRank), factorized(optim.ModeLoRA),
		factorized(optim.ModeReLoRA), factorized(optim.ModeDoRA),
		func() optim.Optimizer { return optim.NewGaLore(h, svd) },
		func() optim.Optimizer { return optim.NewGaLore(h, rp) },
		func() optim.Optimizer { return optim.NewFira(h, svd) },
		func() optim.Optimizer { return optim.NewFlora(h, rp) },
		func() optim.Optimizer { return core.New(h, core.Config{Rank: 4, UpdateGap: 3, Seed: 21}) },
		func() optim.Optimizer { return core.NewMini(h) },
		func() optim.Optimizer { return core.NewStructuredAdamW(h, core.Channel) },
		func() optim.Optimizer { return core.NewStructuredAdamW(h, core.Tensor) },
		func() optim.Optimizer { return optim.NewWeightQuantized(optim.NewGaLore(h, svd), 22) },
		func() optim.Optimizer { return optim.NewWeightQuantized(optim.NewAdam8bit(h, 21), 22) },
		func() optim.Optimizer { return optim.NewWeightQuantized(core.NewMini(h), 22) },
	}
}()

// The fuzz input is a byte stream read front to back (zeros past its end):
// [member, parameter, state]; a state is [#scalars, 8 bytes each, #RowMats,
// #Whole, each matrix, #Blobs, each as 2 length bytes then the bytes, hasSub,
// the nested state]; a matrix is [rows, cols, defect, 4 bytes per element].
// Every count, dimension, length and nesting depth is bounded here, so a
// restore that allocates beyond fuzzAllocBound sized something from a value
// the stream supplied.
const (
	fuzzMaxScalars = 10
	fuzzMaxMats    = 12
	fuzzMaxDim     = 32
	fuzzMaxBlobs   = 6
	fuzzMaxBlob    = 1 << 10
	fuzzMaxDepth   = 3

	fuzzAllocBound = 1 << 20
)

type fuzzStream struct{ b []byte }

func (s *fuzzStream) take(n int) []byte {
	out := make([]byte, n)
	s.b = s.b[copy(out, s.b):]
	return out
}

func (s *fuzzStream) byte() int { return int(s.take(1)[0]) }

func (s *fuzzStream) matrix() *tensor.Matrix {
	rows, cols, defect := s.byte()%fuzzMaxDim, s.byte()%fuzzMaxDim, s.byte()
	m := &tensor.Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
	for i := range m.Data {
		m.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(s.take(4)))
	}
	switch defect {
	case 1:
		return nil
	case 2:
		m.Data = m.Data[:max(len(m.Data)-1, 0)] // header and payload disagree
	}
	return m
}

func (s *fuzzStream) state(depth int) *optim.ParamState {
	st := &optim.ParamState{}
	for range s.byte() % fuzzMaxScalars {
		st.Scalars = append(st.Scalars, binary.LittleEndian.Uint64(s.take(8)))
	}
	for range s.byte() % fuzzMaxMats {
		st.RowMats = append(st.RowMats, s.matrix())
	}
	for range s.byte() % fuzzMaxMats {
		st.Whole = append(st.Whole, s.matrix())
	}
	for range s.byte() % fuzzMaxBlobs {
		n := int(binary.LittleEndian.Uint16(s.take(2))) % fuzzMaxBlob
		st.Blobs = append(st.Blobs, s.take(n))
	}
	if s.byte()%2 == 1 && depth < fuzzMaxDepth {
		st.Sub = s.state(depth + 1)
	}
	return st
}

// fuzzEncode is the inverse of fuzzStream.state for a well-formed state
// within the bounds — how captured states become seed inputs.
func fuzzEncode(out []byte, st *optim.ParamState) []byte {
	mats := func(ms []*tensor.Matrix) {
		out = append(out, byte(len(ms)))
		for _, m := range ms {
			out = append(out, byte(m.Rows), byte(m.Cols), 0)
			for _, f := range m.Data {
				out = binary.LittleEndian.AppendUint32(out, math.Float32bits(f))
			}
		}
	}
	out = append(out, byte(len(st.Scalars)))
	for _, v := range st.Scalars {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	mats(st.RowMats)
	mats(st.Whole)
	out = append(out, byte(len(st.Blobs)))
	for _, b := range st.Blobs {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(b)))
		out = append(out, b...)
	}
	if st.Sub == nil {
		return append(out, 0)
	}
	return fuzzEncode(append(out, 1), st.Sub)
}

func sameBits(a, b *tensor.Matrix) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.EqualFunc(a.Data, b.Data, func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y)
	})
}

func sameState(a, b *optim.ParamState) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.Scalars, b.Scalars) &&
		slices.EqualFunc(a.RowMats, b.RowMats, sameBits) &&
		slices.EqualFunc(a.Whole, b.Whole, sameBits) &&
		slices.EqualFunc(a.Blobs, b.Blobs, slices.Equal[[]byte]) &&
		sameState(a.Sub, b.Sub)
}

// fuzzSeeds runs every member for five golden steps (past a refresh and a
// ReLoRA merge) and encodes each parameter's captured state as an input
// addressed to that member and parameter.
func fuzzSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for mi, build := range fuzzZoo {
		opt, ps, rng := build(), optimtest.Params(), tensor.NewRNG(0x901D)
		for step := range 5 {
			optimtest.Grads(ps, rng, step)
			opt.Step(ps)
		}
		for pi, p := range ps {
			st, err := opt.CaptureParam(p)
			if err != nil {
				t.Fatal(err)
			}
			if st != nil {
				seeds = append(seeds, fuzzEncode([]byte{byte(mi), byte(pi)}, st))
			}
		}
	}
	return seeds
}

// FuzzRestoreParam hands a bounded, arbitrary ParamState to a zoo member's
// RestoreParam for one of the golden parameters. It must refuse or accept,
// never panic, and never allocate by a number the state supplied; what it
// accepts it must hand back unchanged from CaptureParam, and the next Step
// must run. testdata/fuzz/FuzzRestoreParam holds states this commit's code
// captured in the golden runs, one per distinct layout; the full set is
// recomputed from HEAD as seeds on every run.
func FuzzRestoreParam(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s := &fuzzStream{b: in}
		opt := fuzzZoo[s.byte()%len(fuzzZoo)]()
		ps := optimtest.Params()
		p := ps[s.byte()%len(ps)]
		st := s.state(0)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := opt.RestoreParam(p, st)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > fuzzAllocBound {
			t.Fatalf("%s: RestoreParam(%s) allocated %d bytes (err: %v)", opt.Name(), p.Name, grew, err)
		}
		if err != nil {
			return
		}
		back, err := opt.CaptureParam(p)
		if err != nil || !sameState(st, back) {
			t.Fatalf("%s: accepted state for %s does not round-trip (err: %v)\n in: %+v\nout: %+v", opt.Name(), p.Name, err, st, back)
		}
		optimtest.Grads(ps, tensor.NewRNG(0x901D), 0)
		opt.Step([]*nn.Param{p})
	})
}

// TestFuzzSeedsRestore is the well-formed half of the fuzz contract as a
// plain test: every captured golden state decodes from its seed encoding
// bit for bit and is accepted by a fresh instance.
func TestFuzzSeedsRestore(t *testing.T) {
	seeds := fuzzSeeds(t)
	if len(seeds) < 4*len(fuzzZoo) {
		t.Fatalf("only %d seed states from %d members", len(seeds), len(fuzzZoo))
	}
	for _, seed := range seeds {
		s := &fuzzStream{b: seed}
		opt := fuzzZoo[s.byte()]()
		p := optimtest.Params()[s.byte()]
		st := s.state(0)
		if got := fuzzEncode(seed[:2:2], st); !slices.Equal(got, seed) || len(s.b) != 0 {
			t.Fatalf("%s %s: seed does not decode to what was encoded", opt.Name(), p.Name)
		}
		if err := opt.RestoreParam(p, st); err != nil {
			t.Fatalf("%s %s: captured state refused: %v", opt.Name(), p.Name, err)
		}
	}
}
