package train

import (
	"math"
	"testing"

	"apollo/internal/nn"
	"apollo/internal/obs/memprof"
	"apollo/internal/tensor"
)

// treeBatches are the batch sizes the tree tests cover: every B up to 17 —
// powers of two, one past them, odd and even — and 32.
func treeBatches() []int {
	var bs []int
	for b := 1; b <= 17; b++ {
		bs = append(bs, b)
	}
	return append(bs, 32)
}

// strideTree is the definition the online fold must reproduce, kept here as
// the reference: the stride loop over per-sequence leaves, its sums landing
// in leaf 0.
func strideTree(leaves [][]*tensor.Matrix, losses []float64) {
	b := len(leaves)
	for stride := 1; stride < b; stride *= 2 {
		for i := 0; i+stride < b; i += 2 * stride {
			for j := range leaves[i] {
				tensor.AddInPlace(leaves[i][j], leaves[i+stride][j])
			}
			losses[i] += losses[i+stride]
		}
	}
}

// TestOnlineReduceMatchesLeafTree: every replica folding its own range as
// its leaves arrive, then the join folding the partials that straddle the
// ranges, gives the stride loop's root gradient and loss sum bit for bit,
// for every B in treeBatches and every replica count N ≤ B — TestLoopGolden
// pins only a few (B, N) pairs. The leaves span twenty binades, so pairing
// different operands changes the rounding.
func TestOnlineReduceMatchesLeafTree(t *testing.T) {
	shapes := [][2]int{{3, 5}, {1, 7}}
	rng := tensor.NewRNG(17)
	for _, b := range treeBatches() {
		leaves := make([][]*tensor.Matrix, b)
		want := make([][]*tensor.Matrix, b)
		losses := make([]float64, b)
		for s := range leaves {
			for _, sh := range shapes {
				m := tensor.NewMatrix(sh[0], sh[1])
				for i := range m.Data {
					m.Data[i] = float32(math.Ldexp(rng.Norm(), rng.Intn(20)-10))
				}
				leaves[s] = append(leaves[s], m)
				want[s] = append(want[s], m.Clone())
			}
			losses[s] = math.Ldexp(rng.Norm(), rng.Intn(40)-20)
		}
		wantLoss := append([]float64(nil), losses...)
		strideTree(want, wantLoss)

		for n := 1; n <= b; n++ {
			dp := &dataParallel{join: treeFold{b: b}}
			for r := 0; r < n; r++ {
				rep := &dpReplica{fold: treeFold{b: b}}
				for _, sh := range shapes {
					p := nn.NewParam("p", nn.KindMatrix, tensor.NewMatrix(sh[0], sh[1]))
					rep.params = append(rep.params, p)
					rep.grads = append(rep.grads, p.Grad)
				}
				for s := r * b / n; s < (r+1)*b/n; s++ {
					for i, g := range rep.grads {
						g.CopyFrom(leaves[s][i]) // what the sequence's backward leaves
					}
					rep.fold.push(treeNode{lo: s, grad: rep.grads, loss: losses[s]}, rep.stash)
				}
				for _, g := range rep.grads {
					g.Fill(float32(math.NaN())) // the next backward: no partial may live here
				}
				dp.reps = append(dp.reps, rep)
			}
			root := dp.joinRoot()
			if len(dp.join.stack) != 1 || root.lo != 0 || 1<<root.level < b {
				t.Fatalf("B=%d N=%d: the join ends on %d nodes, the first at %d level %d",
					b, n, len(dp.join.stack), root.lo, root.level)
			}
			for i, g := range root.grad {
				if !g.Equal(want[0][i]) {
					t.Fatalf("B=%d N=%d: gradient %d differs from the stride loop's", b, n, i)
				}
			}
			if math.Float64bits(root.loss) != math.Float64bits(wantLoss[0]) {
				t.Fatalf("B=%d N=%d: loss sum %v, stride loop %v", b, n, root.loss, wantLoss[0])
			}
		}
	}
}

// TestDPGradLeavesLedger: the ledger's dp_grad_leaves is the partial buffers
// the folds really allocate — 2·2·P at B = 8, N = 2, where one leaf per
// sequence made it 8·P, and never more than N·(⌈log₂(B/N)⌉+1)·P — and
// dp_replicas holds the N−1 models beside the master, each with the arena
// of a one-sequence forward+backward.
func TestDPGradLeavesLedger(t *testing.T) {
	for _, b := range treeBatches() {
		for n := 1; n <= 4; n++ {
			model, opt, corpus := dpTestSetup(t, 3)
			p := paramBytes(model.Params().List())
			probe := model.Clone()
			probe.Loss(make([]int, 8), make([]int, 8), 1, 8)
			arena := probe.ActivationBytes()
			mp := memprof.New(memprof.Config{})
			DPPretrain(model, opt, corpus, DPConfig{
				PretrainConfig: PretrainConfig{Batch: b, Seq: 8, Steps: 2, EvalBatches: 1, MemProf: mp},
				Replicas:       n,
			})
			reps := int64(min(n, b))
			depth := int64(0) // ⌈log₂(B/N)⌉
			for reps<<depth < int64(b) {
				depth++
			}
			leaves := mp.Read(memprof.CompDPGradLeaves)
			if bound := reps * (depth + 1) * p; leaves <= 0 || leaves > bound {
				t.Errorf("B=%d N=%d: dp_grad_leaves %d, want in (0, %d]", b, n, leaves, bound)
			}
			if b == 8 && n == 2 && leaves != 2*2*p {
				t.Errorf("B=8 N=2: dp_grad_leaves %d, want 2·2·P = %d", leaves, 4*p)
			}
			if got, want := mp.Read(memprof.CompDPReplicas), (reps-1)*(2*p+arena); got != want {
				t.Errorf("B=%d N=%d: dp_replicas %d, want %d (N−1 models, weights + grads + arena)", b, n, got, want)
			}
		}
	}
}
