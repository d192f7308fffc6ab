// Package treecut addresses the NP-complete side of the paper: bandwidth
// minimization on tree task graphs (§2.3, Theorem 1). It provides
//
//   - a 0-1 knapsack solver (the problem Theorem 1 reduces from),
//   - the Theorem 1 reduction in both directions, as executable code,
//   - an exact pseudo-polynomial DP for tree bandwidth minimization with
//     integer vertex weights,
//   - an exact branch-and-bound for small trees with real weights, and
//   - a greedy heuristic with a redundancy-elimination pass for large trees.
//
// Each tree solver has one context-aware entry point, which takes a valid
// tree as its precondition: engine.Solve checks a request's tree before the
// entry runs, and nothing in this package re-checks it.
package treecut

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sentinel errors.
var (
	// ErrBadInput is returned for malformed solver inputs.
	ErrBadInput = errors.New("treecut: bad input")
	// ErrTooLarge is returned when an exact solver refuses an instance.
	ErrTooLarge = errors.New("treecut: instance too large for exact solver")
	// ErrInfeasible is returned when no cut satisfies the bound.
	ErrInfeasible = errors.New("treecut: no feasible partition")
)

// KnapsackItem is one 0-1 knapsack item.
type KnapsackItem struct {
	// Weight consumes knapsack capacity; must be a non-negative integer.
	Weight int
	// Profit is the value gained by packing the item.
	Profit float64
}

// KnapsackResult is an optimal packing.
type KnapsackResult struct {
	// Profit is the total profit of the chosen items.
	Profit float64
	// Chosen lists chosen item indices in increasing order.
	Chosen []int
}

// KnapsackDP solves 0-1 knapsack exactly by dynamic programming over
// capacity: O(n·capacity) time, O(n·capacity) space (to reconstruct the
// chosen set).
func KnapsackDP(items []KnapsackItem, capacity int) (*KnapsackResult, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("capacity %d: %w", capacity, ErrBadInput)
	}
	for i, it := range items {
		if it.Weight < 0 || it.Profit < 0 || math.IsNaN(it.Profit) || math.IsInf(it.Profit, 0) {
			return nil, fmt.Errorf("item %d = %+v: %w", i, it, ErrBadInput)
		}
	}
	n := len(items)
	// take[i][c] records whether item i is taken at residual capacity c.
	take := make([][]bool, n)
	prev := make([]float64, capacity+1)
	cur := make([]float64, capacity+1)
	for i, it := range items {
		take[i] = make([]bool, capacity+1)
		for c := 0; c <= capacity; c++ {
			cur[c] = prev[c]
			if it.Weight <= c {
				if v := prev[c-it.Weight] + it.Profit; v > cur[c] {
					cur[c] = v
					take[i][c] = true
				}
			}
		}
		prev, cur = cur, prev
	}
	res := &KnapsackResult{Profit: prev[capacity]}
	c := capacity
	for i := n - 1; i >= 0; i-- {
		if take[i][c] {
			res.Chosen = append(res.Chosen, i)
			c -= items[i].Weight
		}
	}
	sort.Ints(res.Chosen)
	return res, nil
}
