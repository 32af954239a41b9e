package zero

import "sort"

// PartitionWeighted splits unit indices 0..len(weights)-1 into n
// deterministic, balanced shards by greedy largest-first: units are visited
// in decreasing weight (ties broken by unit index) and each is assigned to
// the currently lightest shard (ties broken by lowest shard id). The
// assignment depends only on the weights and n — never on map iteration,
// scheduling or addresses — so every replica computes the same ownership.
// Greedy largest-first guarantees max-shard load ≤ ideal + largest unit;
// TestPartitionBalance enforces that bound.
func PartitionWeighted(weights []int64, n int) [][]int {
	if n < 1 {
		n = 1
	}
	if n > len(weights) {
		n = len(weights)
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if weights[order[a]] != weights[order[b]] {
			return weights[order[a]] > weights[order[b]]
		}
		return order[a] < order[b]
	})

	shards := make([][]int, n)
	loads := make([]int64, n)
	for _, idx := range order {
		best := 0
		for s := 1; s < n; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		shards[best] = append(shards[best], idx)
		loads[best] += weights[idx]
	}
	for s := range shards {
		sort.Ints(shards[s])
	}
	return shards
}
