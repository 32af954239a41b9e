// Data-parallel pre-training: the measured counterpart of the DDP mechanism
// internal/cluster simulates. A global batch is sharded across N model
// replicas, each replica runs forward/backward concurrently on its shard,
// and gradients are all-reduced before a single optimizer step on the
// master parameters. Its wall time is the repository benchmark's to report:
// `bash benchmark/run.sh --workload pretrain_dpzero` is the number of record
// for this stage (with `--trace 1`, the all-reduce/broadcast phases and the
// kernels' `runtime.parallel_speedup` beside it); `apollo-bench -run
// fig1-throughput` prints the simulator's prediction.
//
// This file is the data-parallel gradient stage of the pre-training loop
// (pretrain in train.go): where the batch gradient comes from and how
// stepped weights get back to the replicas. The rest of a step is the loop's.
//
// Determinism contract. The gradient of a global batch is *defined* as the
// balanced binary-tree sum of per-sequence gradient leaves — the stride loop
// leaf[i] += leaf[i+s] for s = 1, 2, 4, … while i+s < B — and the loss as
// the same tree over per-sequence loss sums; cross-entropy normalizes every
// shard by the global target count (nn.CrossEntropyShard). Leaves and tree
// depend only on the batch — never on the replica count or scheduling — so
// DPPretrain is bit-identical for any Replicas value: `-replicas 4`
// reproduces `-replicas 1` exactly, float by float. (The fused stage
// computes the same mathematical gradient in one big forward/backward; its
// float32 rounding differs, so DP runs are compared against DP runs and
// the fused stage stays the default for single-process training.)
//
// Only the tree's evaluation is distributed, and no leaf is kept. A replica
// walks its sequence range in order and folds each subtree it wholly owns
// the moment the subtree's right half is done (treeFold: a binary-counter
// stack, about ⌈log₂(B/N)⌉+1 partials live); after the join, the few
// partials that straddle replica ranges are folded in the same tree order
// into the master grads. Every node is still the sum of the same two
// operands, and float addition is commutative, so each node — the root
// included — is the stride loop's, bit for bit. Replica 0 is the master
// model itself: a run holds N models, not N+1.
package train

import (
	"sync"
	"sync/atomic"

	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/obs"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// DPConfig controls a data-parallel pre-training run.
type DPConfig struct {
	PretrainConfig
	// Replicas is the number of model replicas sharding each batch
	// (clamped to [1, Batch]). Results are bit-identical for every value.
	Replicas int
}

// dpReplica is one model with its parameter list cached, and its share of
// the gradient tree.
type dpReplica struct {
	model  *nn.Model
	params []*nn.Param
	grads  []*tensor.Matrix // the params' Grad: where each sequence's leaf lands

	fold       treeFold           // the partials folded from this replica's range
	spares     [][]*tensor.Matrix // grow-only partial buffers; stack depth d lives in spares[d]
	spareBytes atomic.Int64       // their size, read by the memory ledger
}

// dataParallel is the gradient stage of a `-replicas N` run.
type dataParallel struct {
	master  []*nn.Param
	reps    []*dpReplica         // reps[0] is the master model, the rest are copies of it
	sharder optim.ShardedStepper // non-nil under ZeRO: publish keeps the replicas current

	join   treeFold     // folds the partials that straddle replica ranges
	clocks []phaseClock // per-replica forward/backward/fold time, merged after the join

	paramBytes                     int64
	allReduceBytes, broadcastBytes int64 // comm volume the Result reports
}

// DPPretrain runs the pre-training loop of Pretrain with data-parallel
// gradient computation. model holds the master weights; opt steps them.
//
// ZeRO extension. When opt implements optim.ShardedStepper (zero.Sharded),
// the optimizer's state is partitioned: every parameter row range has one
// owner shard, which is charged its state and publishes its stepped rows,
// and the updated weights reach the other replicas through a per-shard
// binomial-tree broadcast — the weight-side mirror of the gradient
// all-reduce tree. The step itself is still the one Optimizer.Step, and
// broadcast copies are float-exact, so the sharded run stays bit-identical
// to `-replicas 1` while each replica's resident optimizer state drops to
// ~1/N (see Result.ReplicaStateBytes and internal/zero's determinism
// contract).
func DPPretrain(model *nn.Model, opt optim.Optimizer, corpus *data.Corpus, cfg DPConfig) Result {
	pcfg := cfg.PretrainConfig.withDefaults()
	return pretrain(model, opt, corpus, pcfg, newDataParallel(model, opt, pcfg.Batch, cfg.Replicas))
}

func newDataParallel(model *nn.Model, opt optim.Optimizer, batch, replicas int) *dataParallel {
	replicas = max(1, min(replicas, batch))
	dp := &dataParallel{
		master: model.Params().List(),
		reps:   make([]*dpReplica, replicas),
		join:   treeFold{b: batch},
		clocks: make([]phaseClock, replicas),
	}
	dp.paramBytes = paramBytes(dp.master)
	for r := range dp.reps {
		rm := model
		if r > 0 {
			rm = nn.NewModel(model.Cfg, tensor.NewRNG(uint64(r)+1))
		}
		rep := &dpReplica{model: rm, params: rm.Params().List(), fold: treeFold{b: batch}}
		for _, p := range rep.params {
			rep.grads = append(rep.grads, p.Grad)
		}
		dp.reps[r] = rep
	}
	if sharder, ok := opt.(optim.ShardedStepper); ok {
		sharder.Init(dp.master)
		dp.sharder = sharder
		dp.syncReplicas() // once; thereafter publish keeps them current
	}
	return dp
}

// syncReplicas copies the master weights into every replica but replica 0,
// which is the master.
func (dp *dataParallel) syncReplicas() {
	for _, rep := range dp.reps[1:] {
		for i, p := range dp.master {
			rep.params[i].W.CopyFrom(p.W)
		}
	}
}

// gradient fills the master grads and returns the batch loss: replica sync,
// concurrent per-sequence leaves folded as they come, then the straddling
// partials folded into the root.
func (dp *dataParallel) gradient(batch data.Batch, pc *phaseClock) float64 {
	b, t := dp.join.b, batch.T
	replicas := len(dp.reps)
	counted := nn.CountTargets(batch.Targets, -1)

	// Broadcast master weights to every replica (the DDP sync point; it is
	// counted as N transfers though replica 0 shares the master's storage).
	// Under ZeRO this already happened through the post-step shard
	// broadcast, so the copy (and its comm volume) is skipped.
	if dp.sharder == nil {
		dp.syncReplicas()
		dp.broadcastBytes += int64(replicas) * dp.paramBytes
	}
	pc.lap(obs.PhaseBroadcast)
	// The tree has B−1 edges, each one parameter set merged.
	dp.allReduceBytes += int64(b-1) * dp.paramBytes

	// A batch with no non-ignored targets has zero loss and zero
	// gradient (the fused CrossEntropy convention); skip the shard
	// compute rather than hand CrossEntropyShard a zero normalizer.
	if counted == 0 {
		for _, p := range dp.master {
			p.ZeroGrad()
		}
		pc.lap(obs.PhaseAllReduce)
		return 0
	}

	// Concurrent sharded forward/backward: replica r owns the contiguous
	// sequence range [r·B/N, (r+1)·B/N), folds each leaf right after the
	// backward that left it in the replica's grads, and times its own
	// forward, backward and folds; those sums carry the section's wall
	// time, so pc skips it.
	var wg sync.WaitGroup
	for r, rep := range dp.reps {
		dp.clocks[r] = phaseClock{on: pc.on}
		wg.Add(1)
		go func(rep *dpReplica, rc *phaseClock, lo, hi int) {
			defer wg.Done()
			rep.fold.stack = rep.fold.stack[:0]
			for s := lo; s < hi; s++ {
				rep.model.Params().ZeroGrad()
				rc.skip()
				loss := lossShardPhased(rep.model,
					batch.Tokens[s*t:(s+1)*t], batch.Targets[s*t:(s+1)*t], 1, t, counted, rc, nil, false)
				rep.fold.push(treeNode{lo: s, grad: rep.grads, loss: loss}, rep.stash)
				rc.lap(obs.PhaseAllReduce)
			}
		}(rep, &dp.clocks[r], r*b/replicas, (r+1)*b/replicas)
	}
	wg.Wait()
	for r := range dp.clocks {
		pc.merge(&dp.clocks[r])
	}
	pc.skip()

	root := dp.joinRoot()
	for i, p := range dp.master {
		p.Grad.CopyFrom(root.grad[i])
	}
	pc.lap(obs.PhaseAllReduce)
	return root.loss / float64(counted)
}

// joinRoot folds what the replicas' stacks hold after the join — the
// partials whose subtrees straddle replica ranges — in sequence order, which
// finishes the tree in tree order, and returns the root.
func (dp *dataParallel) joinRoot() treeNode {
	dp.join.stack = dp.join.stack[:0]
	for _, rep := range dp.reps {
		for _, n := range rep.fold.stack {
			dp.join.push(n, nil)
		}
	}
	return dp.join.stack[0]
}

// treeNode is one node of the leaf tree: the sum of leaves
// [lo, min(lo+2^level, B)) and of their loss sums. lo is a multiple of
// 2^level.
type treeNode struct {
	lo, level int
	grad      []*tensor.Matrix
	loss      float64
}

// treeFold evaluates the leaf tree over a stream of its nodes in sequence
// order — a replica's leaves, or after the join every replica's leftover
// partials — on a binary-counter stack: a node that completes its left
// sibling is added into it at once, so only nodes still waiting for a
// right sibling, or whose left sibling precedes the stream, stay stacked.
type treeFold struct {
	b     int        // leaves in the tree: the global batch
	stack []treeNode // pending nodes, lo increasing
}

// push folds n into the stack, climbing while n completes a pair: a right
// child whose left sibling is on top is added into it (left += right, the
// stride loop's add), and a left child with no right sibling before B is
// its own parent (the stride loop's B-boundary carry). The node it stops at
// is stacked; stash, when not nil, first gives it storage of its own at its
// stack depth.
func (f *treeFold) push(n treeNode, stash func(depth int, n *treeNode)) {
	for n.lo != 0 || 1<<n.level < f.b { // not yet the root
		span := 1 << n.level
		if n.lo/span%2 == 0 {
			if n.lo+span < f.b {
				break // a left child waiting for its right sibling
			}
			n.level++
			continue
		}
		top := len(f.stack) - 1
		if top < 0 || f.stack[top].lo != n.lo-span {
			break // a right child whose left sibling precedes the stream
		}
		left := f.stack[top]
		f.stack = f.stack[:top]
		// A plain loop, not tensor.AddInPlace: a replica folds beside the
		// other replicas' forward/backward, and fanning the add out on the
		// pool stalls them (−20% tokens/s on pretrain_dpzero). The sum
		// rounds the same either way.
		for i, g := range left.grad {
			for j, v := range n.grad[i].Data {
				g.Data[j] += v
			}
		}
		left.loss += n.loss
		left.level++
		n = left
	}
	if stash != nil {
		stash(len(f.stack), &n)
	}
	f.stack = append(f.stack, n)
}

// stash moves a node that still lives in the replica's grads (a leaf,
// maybe carried up) into the spare at depth — the one copy a leaf is ever
// made — before the next sequence's backward overwrites it. A folded node
// already lives in the spare at its depth: it took the place of the stack
// entry it was added into.
func (rep *dpReplica) stash(depth int, n *treeNode) {
	if depth == len(rep.spares) {
		buf := make([]*tensor.Matrix, len(rep.grads))
		for i, g := range rep.grads {
			buf[i] = tensor.NewMatrix(g.Rows, g.Cols)
		}
		rep.spares = append(rep.spares, buf)
		rep.spareBytes.Add(paramBytes(rep.params))
	}
	if n.grad[0] != rep.grads[0] {
		return
	}
	buf := rep.spares[depth]
	for i, g := range n.grad {
		buf[i].CopyFrom(g)
	}
	n.grad = buf
}

// publish gets the freshly stepped master weights back to the replicas:
// under ZeRO the binomial-tree broadcast of each updated shard from its
// owner; nothing in plain DP, which re-syncs at the top of the next gradient.
func (dp *dataParallel) publish(pc *phaseClock) {
	if dp.sharder == nil {
		return
	}
	dp.broadcastBytes += broadcastShards(dp.reps, dp.master, dp.sharder)
	pc.lap(obs.PhaseBroadcast)
}

// replicaStateBytes: one shard each under ZeRO, the full state in plain DP.
func (dp *dataParallel) replicaStateBytes(opt optim.Optimizer) []int64 {
	if dp.sharder != nil {
		return dp.sharder.ReplicaStateBytes()
	}
	per := make([]int64, len(dp.reps))
	for i := range per {
		per[i] = opt.StateBytes()
	}
	return per
}

// broadcastShards distributes each shard's freshly stepped master weights
// to every replica with a binomial tree rooted at the shard's owner: the
// owner copies its shard locally (its own update — no traffic), then in
// round k every replica holding the shard forwards it stride=2^k ranks
// ahead, exactly the log₂(N)-depth pattern of the gradient all-reduce.
// Shards cover disjoint parameter indices, so their trees run concurrently.
// Copies are float-exact; the returned byte count covers only the
// inter-replica transfers. reps[0] is the master model.
func broadcastShards(reps []*dpReplica, master []*nn.Param, sharder optim.ShardedStepper) int64 {
	replicas := len(reps)
	var moved int64
	var wg sync.WaitGroup
	for s := 0; s < sharder.Shards(); s++ {
		segs := sharder.OwnedSegments(s)
		if len(segs) == 0 {
			continue
		}
		var shardBytes int64
		for _, sg := range segs {
			shardBytes += 4 * int64((sg.Row1-sg.Row0)*master[sg.Param].W.Cols)
		}
		owner := s % replicas
		moved += shardBytes * int64(replicas-1)
		wg.Add(1)
		go func(segs []optim.Segment, owner int) {
			defer wg.Done()
			copySegs := func(dst, src *dpReplica) {
				for _, sg := range segs {
					lo := sg.Row0 * master[sg.Param].W.Cols
					hi := sg.Row1 * master[sg.Param].W.Cols
					copy(dst.params[sg.Param].W.Data[lo:hi], src.params[sg.Param].W.Data[lo:hi])
				}
			}
			// The owner's copy from the master is its own freshly stepped
			// update — local, no traffic; replica 0 is the master.
			if owner != 0 {
				copySegs(reps[owner], reps[0])
			}
			for stride := 1; stride < replicas; stride *= 2 {
				for rel := 0; rel < stride && rel+stride < replicas; rel++ {
					copySegs(reps[(owner+rel+stride)%replicas], reps[(owner+rel)%replicas])
				}
			}
		}(segs, owner)
	}
	wg.Wait()
	return moved
}
