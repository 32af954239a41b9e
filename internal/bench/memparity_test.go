package bench

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"apollo/internal/ckpt"
	"apollo/internal/memmodel"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// stepOnNoise takes one optimizer step on seeded non-zero gradients, which
// allocates every lazily created state (SVD-projection methods refresh off
// the gradient).
func stepOnNoise(opt optim.Optimizer, params []*nn.Param) {
	rng := tensor.NewRNG(9)
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat32() * 0.1
		}
	}
	opt.Step(params)
}

// TestMeasuredStateMatchesMemmodel enforces the "honest memory tables"
// claim in CI: the bytes each catalogue method actually allocates on a live
// proxy model must match the Table 1 formula of its memmodel row evaluated
// on that model's shapes. Live states are fp32 (4 bytes/element), so the
// comparison is in elements (the INT8 rows are priced in bytes, by
// TestCheckpointBytesPrediction). Tolerances are tight: exact for the
// methods whose formula is the implementation, a few percent for Adam-mini
// (the formula books the block second moment as n per matrix; the
// implementation keeps one per stored row, which for n×m-stored matrices
// is the smaller dimension).
func TestMeasuredStateMatchesMemmodel(t *testing.T) {
	const rank = 8
	proxy, err := ProxyByName("60M")
	if err != nil {
		t.Fatal(err)
	}
	tol := map[string]float64{"Adam-mini": 0.03}
	for _, m := range Methods() {
		if m.Mem == nil || m.Mem.StateBytesPer < memmodel.BytesBF16 {
			continue
		}
		t.Run(m.Name, func(t *testing.T) {
			model := proxy.NewProxyModel(3)
			params := model.Params().List()
			rank := m.Rank(rank, proxy.Model.Dim)
			opt := m.New(optim.Hyper{LR: 1e-3}, rank, 7)
			stepOnNoise(opt, params)

			predicted := memmodel.StateElems(ShapesOf(params), *m.Mem, rank)
			measured := float64(opt.StateBytes()) / 4

			if predicted == 0 && measured == 0 {
				return
			}
			dev := math.Abs(measured-predicted) / predicted
			if dev > tol[m.Name] {
				t.Fatalf("%s: measured %0.f state elems vs predicted %0.f (%.2f%% deviation, tol %.2f%%)",
					m.Name, measured, predicted, dev*100, tol[m.Name]*100)
			}
		})
	}
}

// TestStateRankFollowsTheOptimizer: the rank memmodel prices must be the
// rank the built optimizer runs at, not the one the caller typed.
// APOLLO-Mini ignores its rank argument, so at `-rank 32` on the 60M proxy
// (dim 32 — the rank reaches every layer's width, where memmodel switches to
// the dense fallback) a prediction at the caller's rank is 2.4× the state
// the optimizer holds. memmodel's row carries the fixed rank itself, so the
// prediction is exact whatever rank it is asked about.
func TestStateRankFollowsTheOptimizer(t *testing.T) {
	proxy, err := ProxyByName("60M")
	if err != nil {
		t.Fatal(err)
	}
	rank := proxy.Model.Dim
	model := proxy.NewProxyModel(3)
	params := model.Params().List()
	opt, err := BuildOptimizer("APOLLO-Mini", 1e-3, rank, 7)
	if err != nil {
		t.Fatal(err)
	}
	stepOnNoise(opt, params)
	measured := float64(opt.StateBytes()) / 4

	if got := memmodel.StateElems(ShapesOf(params), memmodel.MethodAPOLLOMini, rank); got != measured {
		t.Fatalf("asked about rank %d: predicted %.0f state elems, measured %.0f", rank, got, measured)
	}
	naive := memmodel.MethodAPOLLOMini
	naive.FixedRank = 0
	if got := memmodel.StateElems(ShapesOf(params), naive, rank); got == measured {
		t.Fatalf("rank %d does not reach the dense fallback on this proxy; the case above proves nothing", rank)
	}
}

// TestCheckpointBytesPrediction enforces the size half of the checkpoint
// contract: memmodel.CheckpointBytes (what apollo-memplan and apollo-ckpt
// print) must land within 2% of the actually serialized file for every
// fp-state method and for the INT8 variants. The slack covers only the
// per-parameter bookkeeping constants; the data payload is exact.
func TestCheckpointBytesPrediction(t *testing.T) {
	const rank = 8
	proxy, err := ProxyByName("60M")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		if m.Mem == nil {
			continue
		}
		t.Run(m.Name, func(t *testing.T) {
			model := proxy.NewProxyModel(3)
			params := model.Params().List()
			rank := m.Rank(rank, proxy.Model.Dim)
			opt := m.New(optim.Hyper{LR: 1e-3}, rank, 7)
			stepOnNoise(opt, params)

			st, err := ckpt.Capture(1, params, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ckpt.Write(&buf, st); err != nil {
				t.Fatal(err)
			}

			predicted := memmodel.CheckpointBytes(ShapesOf(params), *m.Mem, rank)
			actual := float64(buf.Len())
			if dev := math.Abs(actual-predicted) / actual; dev > 0.02 {
				t.Fatalf("%s: file is %.0f bytes, predicted %.0f (%.2f%% off)",
					m.Name, actual, predicted, dev*100)
			}
		})
	}
}

// TestShapesOfMirrorsParamKinds pins the conversion policy: matrices are
// projectable, embeddings and vectors are not.
func TestShapesOfMirrorsParamKinds(t *testing.T) {
	rng := tensor.NewRNG(1)
	params := []*nn.Param{
		nn.NewParam("e", nn.KindEmbedding, tensor.NewMatrixRand(8, 4, 1, rng)),
		nn.NewParam("m", nn.KindMatrix, tensor.NewMatrixRand(4, 4, 1, rng)),
		nn.NewParam("v", nn.KindVector, tensor.NewMatrixRand(1, 4, 1, rng)),
	}
	shapes := ShapesOf(params)
	if shapes[0].Projectable || !shapes[1].Projectable || shapes[2].Projectable {
		t.Fatalf("projectability wrong: %+v", shapes)
	}
}

// TestStateViewsAgree holds the views of an optimizer's state to one another
// for every row of the catalogue, after one step on a live proxy model: the
// measured StateBytes (and the per-parameter StateBytesFor a ZeRO partition
// charges its replicas by), the bytes CaptureParam hands to a checkpoint, and
// the StateElemsFor introspection ZeRO balances by. A slot that is counted but
// not captured (or the reverse) is a trajectory that silently changes on
// resume.
func TestStateViewsAgree(t *testing.T) {
	proxy, err := ProxyByName("60M")
	if err != nil {
		t.Fatal(err)
	}
	// Scalars the paper counts as state, per low-rank-treated matrix: Table
	// 1's "+2" is a random projection's seed and the limiter's previous norm;
	// an SVD projection is persisted as a matrix instead of a seed.
	paperScalars := map[string]int64{
		"APOLLO": 2, "APOLLO-Tensor": 2, "APOLLO-Mini": 2, "Q-APOLLO": 2, "Q-APOLLO-Mini": 2,
		"APOLLO w. SVD": 1, "Fira": 1, "GaLore-RP": 1, "Flora": 1,
		"APOLLO-Mini w. SVD": 1, "APOLLO-Tensor w. SVD": 1, "APOLLO-Mini (rank r)": 2,
		"StructuredAdamW-channel": 1, "StructuredAdamW-tensor": 1,
	}
	var captured func(st *optim.ParamState, perTreated int64, quantizedWeight bool) int64
	captured = func(st *optim.ParamState, perTreated int64, quantizedWeight bool) int64 {
		if st == nil {
			return 0
		}
		if quantizedWeight {
			// The wrapper's own blobs are the INT8 master weight — a weight
			// cost, not optimizer state; its state is the nested one.
			return captured(st.Sub, perTreated, false)
		}
		var n int64
		for _, m := range slices.Concat(st.RowMats, st.Whole) {
			n += 4 * int64(m.NumEl())
		}
		for _, b := range st.Blobs {
			n += int64(len(b))
		}
		if len(st.Scalars) > 1 { // a dense AdamW fallback keeps [t] alone
			n += 4 * perTreated
		}
		return n
	}
	for _, m := range Methods() {
		name := m.Name
		t.Run(name, func(t *testing.T) {
			params := proxy.NewProxyModel(3).Params().List()
			opt := m.New(optim.Hyper{LR: 1e-3}, m.Rank(8, proxy.Model.Dim), 7)
			stepOnNoise(opt, params)

			var fromCapture int64
			for _, p := range params {
				st, err := opt.CaptureParam(p)
				if err != nil {
					t.Fatal(err)
				}
				fromCapture += captured(st, paperScalars[name], strings.HasPrefix(name, "Q-"))
			}
			if got := opt.StateBytes(); got != fromCapture {
				t.Errorf("StateBytes %d, CaptureParam carries %d", got, fromCapture)
			}

			si, ok := opt.(optim.StateIntrospector)
			if !ok {
				t.Fatal("no StateIntrospector")
			}
			var elems, perParam int64
			for _, p := range params {
				elems += si.StateElemsFor(p)
				perParam += si.StateBytesFor(p)
			}
			if perParam != opt.StateBytes() {
				t.Errorf("StateBytes %d, ΣStateBytesFor %d", opt.StateBytes(), perParam)
			}
			if strings.HasPrefix(name, "8-bit") {
				// INT8 codes are one byte an element: introspection counts
				// elements (codes and scales), so 4× over-promises — the case
				// instrumentMemory clamps to the measured bytes.
				if 4*elems <= opt.StateBytes() || elems > opt.StateBytes() {
					t.Errorf("%d introspected INT8 elements against %d measured bytes", elems, opt.StateBytes())
				}
			} else if 4*elems != opt.StateBytes() {
				t.Errorf("StateBytes %d, 4·ΣStateElemsFor %d", opt.StateBytes(), 4*elems)
			}
		})
	}
}
