// Package oracle provides small reference solvers — exhaustive subset
// enumeration for trees, quadratic dynamic programming for paths, and a
// greedy leaf-pruning component minimizer — used as ground truth by the
// differential test harness (internal/verify) and by per-package tests.
//
// Every oracle takes a valid graph as its precondition, as the certificate
// checkers that call them do; only the exhaustive TreeBrute and PathDP
// check theirs.
//
// The oracles are deliberately written against internal/graph only, with no
// dependency on internal/core: they share nothing with the production
// algorithms they check, so a bug must be present in two independent
// implementations before it can slip through a differential test.
package oracle

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// MaxBruteEdges is the largest edge count TreeBrute accepts: 2^18 subsets is
// the edge of comfortable test latency.
const MaxBruteEdges = 18

// Sentinel errors.
var (
	// ErrTooLarge is returned by TreeBrute for graphs beyond exhaustive reach.
	ErrTooLarge = errors.New("oracle: graph too large for exhaustive search")
	// ErrInfeasible is returned when no cut satisfies the bound K — some
	// single task already exceeds it.
	ErrInfeasible = errors.New("oracle: no feasible partition for bound K")
)

// TreeResult holds the exhaustive optima over every feasible cut of a tree.
// The three optima are independent: each criterion's best cut is tracked
// separately, so BottleneckCut need not equal BandwidthCut.
type TreeResult struct {
	// Feasible reports whether any feasible cut exists. When false the
	// remaining fields are zero.
	Feasible bool
	// Bottleneck is the minimum over feasible cuts of the heaviest cut-edge
	// weight; BottleneckCut attains it.
	Bottleneck    float64
	BottleneckCut []int
	// Bandwidth is the minimum over feasible cuts of the total cut weight;
	// BandwidthCut attains it.
	Bandwidth    float64
	BandwidthCut []int
	// Components is the minimum over feasible cuts of the component count;
	// ComponentsCut attains it.
	Components    int
	ComponentsCut []int
}

// TreeBrute enumerates every edge subset of the tree (≤ MaxBruteEdges edges)
// and returns the per-criterion optima over the feasible cuts. O(2^m · n).
func TreeBrute(t *graph.Tree, k float64) (*TreeResult, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	m := t.NumEdges()
	if m > MaxBruteEdges {
		return nil, fmt.Errorf("%d edges: %w", m, ErrTooLarge)
	}
	n := t.Len()
	res := &TreeResult{
		Bottleneck: math.Inf(1),
		Bandwidth:  math.Inf(1),
		Components: n + 1,
	}
	parent := make([]int, n)
	compW := make([]float64, n)
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for mask := 0; mask < 1<<m; mask++ {
		for v := 0; v < n; v++ {
			parent[v] = v
		}
		for i, e := range t.Edges {
			if mask&(1<<i) == 0 {
				ru, rv := find(e.U), find(e.V)
				if ru != rv {
					parent[ru] = rv
				}
			}
		}
		for v := 0; v < n; v++ {
			compW[v] = 0
		}
		feasible := true
		for v := 0; v < n; v++ {
			r := find(v)
			compW[r] += t.NodeW[v]
			if compW[r] > k {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		res.Feasible = true
		var weight, bottleneck float64
		for i, e := range t.Edges {
			if mask&(1<<i) != 0 {
				weight += e.W
				if e.W > bottleneck {
					bottleneck = e.W
				}
			}
		}
		comps := bits.OnesCount(uint(mask)) + 1
		if bottleneck < res.Bottleneck {
			res.Bottleneck, res.BottleneckCut = bottleneck, cutOf(mask, m)
		}
		if weight < res.Bandwidth {
			res.Bandwidth, res.BandwidthCut = weight, cutOf(mask, m)
		}
		if comps < res.Components {
			res.Components, res.ComponentsCut = comps, cutOf(mask, m)
		}
	}
	if !res.Feasible {
		return &TreeResult{}, nil
	}
	return res, nil
}

func cutOf(mask, m int) []int {
	cut := make([]int, 0, bits.OnesCount(uint(mask)))
	for i := 0; i < m; i++ {
		if mask&(1<<i) != 0 {
			cut = append(cut, i)
		}
	}
	return cut
}

// PathResult holds the per-criterion optima over every feasible cut of a
// path, each computed by an independent DP recurrence.
type PathResult struct {
	// Feasible reports whether any feasible cut exists. When false the
	// remaining fields are zero.
	Feasible bool
	// MinCutWeight is the minimum total cut weight (the bandwidth criterion).
	MinCutWeight float64
	// MinComponents is the minimum component count.
	MinComponents int
	// MinBottleneck is the minimum over feasible cuts of the heaviest
	// cut-edge weight.
	MinBottleneck float64
}

// PathDP computes the three optima with O(n²) dynamic programs over segment
// endpoints: state i is "tasks 0..i−1 feasibly partitioned", and each
// transition closes the segment j..i−1 (weight ≤ K) paying edge j−1 when
// j > 0. Independent of the production algorithms in internal/core.
func PathDP(p *graph.Path, k float64) (*PathResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.Len()
	prefix := p.PrefixNodeWeights()
	inf := math.Inf(1)
	unreached := n + 2
	fw := make([]float64, n+1) // min total cut weight
	fb := make([]float64, n+1) // min bottleneck
	fc := make([]int, n+1)     // min components
	for i := 1; i <= n; i++ {
		fw[i], fb[i], fc[i] = inf, inf, unreached
	}
	fb[0] = 0
	for i := 1; i <= n; i++ {
		for j := i - 1; j >= 0; j-- {
			// Node weights are non-negative, so segments only grow as j
			// retreats: the first overweight segment ends the scan.
			if prefix[i]-prefix[j] > k {
				break
			}
			var cutW float64
			if j > 0 {
				cutW = p.EdgeW[j-1]
			}
			if fw[j]+cutW < fw[i] {
				fw[i] = fw[j] + cutW
			}
			if b := math.Max(fb[j], cutW); b < fb[i] && fc[j] != unreached {
				fb[i] = b
			}
			if fc[j] != unreached && fc[j]+1 < fc[i] {
				fc[i] = fc[j] + 1
			}
		}
	}
	if fc[n] == unreached {
		return &PathResult{}, nil
	}
	return &PathResult{
		Feasible:      true,
		MinCutWeight:  fw[n],
		MinComponents: fc[n],
		MinBottleneck: fb[n],
	}, nil
}

// MinComponentsTree returns the minimum number of components of any feasible
// partition of the tree, with a cut attaining it. It implements the
// Kundu–Misra greedy independently of internal/core: process vertices
// children first, and whenever a vertex's residual subtree weight exceeds K,
// detach its heaviest child subtrees until it fits. Cutting the heaviest
// residual first is exchange-optimal, so the count is exactly minimal.
// Returns ErrInfeasible, naming the lowest-numbered such task, when a single
// task outweighs K.
func MinComponentsTree(t *graph.Tree, k float64) (int, []int, error) {
	for v, w := range t.NodeW {
		if w > k {
			return 0, nil, fmt.Errorf("task %d weight %v > K=%v: %w", v, w, k, ErrInfeasible)
		}
	}
	rt, _ := t.Root0(nil)
	residual := make([]float64, t.Len())
	inCut := make([]bool, t.NumEdges())
	var kids []int32
	cuts := 0
	for i := len(rt.Order) - 1; i >= 0; i-- {
		v := rt.Order[i]
		total := t.NodeW[v]
		kids = kids[:0]
		lo, hi := rt.Arcs(int(v))
		for a := lo; a < hi; a++ {
			if to := rt.To[a]; to != rt.Parent[v] {
				kids = append(kids, a)
				total += residual[to]
			}
		}
		if total > k {
			// Keep the lightest children while they fit, summing the load
			// afresh from v's own weight: subtracting the detached ones from
			// total would drift from the exact sum on float weights.
			slices.SortFunc(kids, func(a, b int32) int {
				return cmp.Compare(residual[rt.To[b]], residual[rt.To[a]])
			})
			total = t.NodeW[v]
			r := len(kids)
			for r > 0 && total+residual[rt.To[kids[r-1]]] <= k {
				r--
				total += residual[rt.To[kids[r]]]
			}
			for _, a := range kids[:r] {
				inCut[rt.EIdx[a]] = true
			}
			cuts += r
		}
		residual[v] = total
	}
	var cut []int
	if cuts > 0 {
		cut = make([]int, 0, cuts)
	}
	for e, in := range inCut {
		if in {
			cut = append(cut, e)
		}
	}
	return len(cut) + 1, cut, nil
}
