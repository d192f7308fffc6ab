// Theorem 1 made executable: bandwidth minimization is NP-complete already
// on star task graphs, by reduction from 0-1 knapsack. This example builds a
// knapsack instance, converts it to the paper's star gadget, solves both
// sides with independent exact solvers, and shows the optima coincide under
// the mapping δ(S) = Σp − profit(I).
//
//	go run ./examples/theorem1
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/treecut"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	rng := workload.NewRNG(1994)
	items := make([]treecut.KnapsackItem, 12)
	var totalProfit float64
	for i := range items {
		items[i] = treecut.KnapsackItem{
			Weight: 1 + rng.Intn(9),
			Profit: float64(1 + rng.Intn(30)),
		}
		totalProfit += items[i].Profit
	}
	const capacity = 25
	fmt.Printf("knapsack: %d items, capacity %d, total profit %.0f\n", len(items), capacity, totalProfit)

	// Side 1: solve the knapsack directly (DP over capacity).
	pack, err := treecut.KnapsackDP(items, capacity)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal packing: items %v, profit %.0f\n", pack.Chosen, pack.Profit)

	// Side 2: build the Theorem 1 star — centre weight 0, leaf i weighs
	// w_i, edge to leaf i weighs p_i — and cut it so that the centre
	// component stays within K = capacity.
	star, err := treecut.KnapsackToStar(items)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstar gadget: %d vertices (%d leaves), K = %d\n", star.Len(), star.NumEdges(), capacity)
	cut, err := treecut.SolveStarExact(star, capacity)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minimum-weight cut: edges %v, weight %.0f\n", cut.Cut, cut.Weight)
	fmt.Printf("Σp − cut weight = %.0f  (= knapsack optimum %.0f)\n", totalProfit-cut.Weight, pack.Profit)

	// Independent verification with the generic exact tree solvers — the
	// pseudo-polynomial DP and branch & bound know nothing about knapsack.
	dp, _, err := treecut.TreeBandwidthExact(context.Background(), star, capacity)
	if err != nil {
		log.Fatal(err)
	}
	bb, _, err := treecut.TreeBandwidthBB(context.Background(), star, capacity)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncross-check: tree DP cut weight %.0f, branch&bound %.0f\n", dp.Weight, bb.Weight)
	if dp.Weight != cut.Weight || bb.Weight != cut.Weight {
		log.Fatal("solvers disagree — reduction broken")
	}
	fmt.Println("all three exact solvers agree: the reduction preserves optima both ways")
}
