package treecut

import (
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// Property: on random integer-weight trees, the exact DP returns a feasible
// cut that the greedy heuristic never beats, and the star special case
// agrees with the generic DP.
func TestTreeBandwidthExactProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := workload.NewRNG(seed)
		n := 2 + r.Intn(14)
		tr := workload.RandomTree(r, n, workload.UniformWeights(1, 9), workload.UniformWeights(1, 30))
		for v := range tr.NodeW {
			tr.NodeW[v] = float64(1 + int(tr.NodeW[v])%9)
		}
		for i := range tr.Edges {
			tr.Edges[i].W = float64(int(tr.Edges[i].W))
		}
		k := 9 + r.Intn(25)
		exact, _, err := TreeBandwidthExact(ctx, tr, k)
		if err != nil {
			return true // infeasible instances are skipped
		}
		maxW, err := tr.MaxComponentWeight(exact.Cut)
		if err != nil || maxW > float64(k) {
			return false
		}
		greedy, _, err := TreeBandwidthGreedy(ctx, tr, float64(k))
		if err != nil {
			return false
		}
		return greedy.Weight >= exact.Weight-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the Theorem 1 mapping is weight-exact for random knapsack
// instances: star-cut optimum + knapsack optimum = total profit.
func TestTheorem1Property(t *testing.T) {
	f := func(seed uint64) bool {
		r := workload.NewRNG(seed)
		n := 1 + r.Intn(10)
		items := make([]KnapsackItem, n)
		var total float64
		maxLeaf := 0
		for i := range items {
			items[i] = KnapsackItem{Weight: 1 + r.Intn(7), Profit: float64(1 + r.Intn(25))}
			total += items[i].Profit
			if items[i].Weight > maxLeaf {
				maxLeaf = items[i].Weight
			}
		}
		capacity := maxLeaf + r.Intn(20) // keep the star feasible
		star, err := KnapsackToStar(items)
		if err != nil {
			return false
		}
		cut, err := SolveStarExact(star, float64(capacity))
		if err != nil {
			return false
		}
		pack, err := KnapsackDP(items, capacity)
		if err != nil {
			return false
		}
		return abs(cut.Weight+pack.Profit-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
