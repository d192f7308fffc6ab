// Package hostsat implements bottleneck partitioning of a tree task graph
// for a single-host, multiple-identical-satellite system — the prior-work
// setting the paper contrasts itself with in §1: "Bokhari's bottleneck
// minimization problem takes polynomial time when the task graph is a tree
// and target architecture is single host multiple (identical) satellite
// system."
//
// Model: the task tree is rooted at the host's resident task. A partition
// offloads a family of vertex-disjoint subtrees, one per satellite; each
// offloaded subtree costs its total vertex weight plus the weight of its
// root edge (the data shipped between host and satellite). The host runs
// everything not offloaded. The bottleneck is
//
//	max( host load, max over satellites of subtree weight + root-edge weight )
//
// and the goal is to minimize it, optionally with at most m satellites.
//
// Solve runs in O(n log n): the optimum equals the best of
// max(host(B), B) over candidate thresholds B (distinct subtree costs),
// where host(B) — the minimal host load using only offloads of cost ≤ B —
// is computed by a linear tree DP; host(B) is non-increasing and B
// increasing, so the minimum sits at their crossing, found by binary
// search. SolveExact scans every candidate in O(n²) and is the test oracle.
// SolveLimited adds the ≤ m satellites constraint with a cardinality
// knapsack DP over the tree, O(n·m²) per candidate.
package hostsat

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// Sentinel errors.
var (
	// ErrBadInput is returned for invalid hosts or satellite budgets.
	ErrBadInput = errors.New("hostsat: bad input")
)

// Partition is a host/satellite assignment.
type Partition struct {
	// OffloadRoots lists the root vertex of each offloaded subtree, in
	// increasing order.
	OffloadRoots []int
	// SatelliteCosts[i] is subtree weight + root edge weight for
	// OffloadRoots[i].
	SatelliteCosts []float64
	// HostLoad is the total weight left on the host.
	HostLoad float64
	// Bottleneck is max(HostLoad, max SatelliteCosts).
	Bottleneck float64
}

// tree preprocessing shared by the solvers.
type instance struct {
	t        *graph.Tree
	host     int
	rt       graph.Rooted // rooted at host
	parentW  []float64    // root-edge weight per vertex (0 for host)
	subtreeW []float64
	total    float64
}

func prepare(t *graph.Tree, host int) (*instance, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if host < 0 || host >= t.Len() {
		return nil, fmt.Errorf("host %d out of range [0,%d): %w", host, t.Len(), ErrBadInput)
	}
	n := t.Len()
	rt, _ := t.Root(host, nil)
	in := &instance{
		t:        t,
		host:     host,
		rt:       rt,
		parentW:  make([]float64, n),
		subtreeW: make([]float64, n),
		total:    t.TotalNodeWeight(),
	}
	for i := n - 1; i >= 0; i-- {
		v := rt.Order[i]
		if e := rt.ParentEdge[v]; e >= 0 {
			in.parentW[v] = t.Edges[e].W
		}
		in.subtreeW[v] = t.NodeW[v]
		lo, hi := rt.Arcs(int(v))
		for a := lo; a < hi; a++ {
			if to := rt.To[a]; to != rt.Parent[v] {
				in.subtreeW[v] += in.subtreeW[to]
			}
		}
	}
	return in, nil
}

// cost returns the satellite cost of offloading v's subtree.
func (in *instance) cost(v int) float64 {
	return in.subtreeW[v] + in.parentW[v]
}

// bestOffload computes, for threshold b, the maximum total weight that can
// be offloaded using disjoint subtrees of cost ≤ b, and the roots chosen.
// The host vertex itself can never be offloaded. O(n).
func (in *instance) bestOffload(b float64) (float64, []int) {
	n := in.t.Len()
	rt := &in.rt
	// gain[v]: max offloadable weight within v's subtree.
	gain := make([]float64, n)
	whole := make([]bool, n) // v's subtree offloaded as one unit on the optimal path
	for i := n - 1; i >= 0; i-- {
		v := int(rt.Order[i])
		var childSum float64
		lo, hi := rt.Arcs(v)
		for a := lo; a < hi; a++ {
			if to := rt.To[a]; to != rt.Parent[v] {
				childSum += gain[to]
			}
		}
		gain[v] = childSum
		if v != in.host && in.cost(v) <= b && in.subtreeW[v] > childSum {
			gain[v] = in.subtreeW[v]
			whole[v] = true
		}
	}
	// Collect chosen roots top-down.
	var roots []int
	var stack []int
	stack = append(stack, in.host)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v != in.host && whole[v] {
			roots = append(roots, v)
			continue
		}
		lo, hi := rt.Arcs(v)
		for a := lo; a < hi; a++ {
			if to := rt.To[a]; to != rt.Parent[v] {
				stack = append(stack, int(to))
			}
		}
	}
	sort.Ints(roots)
	return gain[in.host], roots
}

// buildPartition assembles a Partition from chosen roots.
func (in *instance) buildPartition(roots []int) *Partition {
	p := &Partition{OffloadRoots: roots}
	var off float64
	for _, v := range roots {
		c := in.cost(v)
		p.SatelliteCosts = append(p.SatelliteCosts, c)
		off += in.subtreeW[v]
		if c > p.Bottleneck {
			p.Bottleneck = c
		}
	}
	p.HostLoad = in.total - off
	if p.HostLoad > p.Bottleneck {
		p.Bottleneck = p.HostLoad
	}
	return p
}

// candidates returns the distinct offload cost thresholds in ascending
// order, with 0 (no offloading) prepended.
func (in *instance) candidates() []float64 {
	set := map[float64]bool{0: true}
	for v := range in.subtreeW {
		if v != in.host {
			set[in.cost(v)] = true
		}
	}
	out := make([]float64, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Float64s(out)
	return out
}

// Solve minimizes the bottleneck with unlimited satellites: O(n log n).
func Solve(t *graph.Tree, host int) (*Partition, error) {
	in, err := prepare(t, host)
	if err != nil {
		return nil, err
	}
	cands := in.candidates()
	// host(B) is non-increasing, B increasing: binary search the first
	// candidate where the threshold is at least the resulting host load,
	// then take the best partition in a window around the crossing (the
	// bound max(host(B), B) is quasi-convex; the window absorbs plateaus).
	cross := sort.Search(len(cands), func(i int) bool {
		gain, _ := in.bestOffload(cands[i])
		return cands[i] >= in.total-gain
	})
	best := math.Inf(1)
	var bestPart *Partition
	lo := cross - 2
	if lo < 0 {
		lo = 0
	}
	hi := cross + 1
	if hi > len(cands)-1 {
		hi = len(cands) - 1
	}
	for i := lo; i <= hi; i++ {
		_, roots := in.bestOffload(cands[i])
		p := in.buildPartition(roots)
		if p.Bottleneck < best {
			best = p.Bottleneck
			bestPart = p
		}
	}
	return bestPart, nil
}

// SolveExact scans every candidate threshold: O(n²). Test oracle for Solve.
func SolveExact(t *graph.Tree, host int) (*Partition, error) {
	in, err := prepare(t, host)
	if err != nil {
		return nil, err
	}
	best := math.Inf(1)
	var bestPart *Partition
	for _, b := range in.candidates() {
		_, roots := in.bestOffload(b)
		p := in.buildPartition(roots)
		if p.Bottleneck < best {
			best = p.Bottleneck
			bestPart = p
		}
	}
	return bestPart, nil
}

// SolveLimited minimizes the bottleneck using at most m satellites:
// O(n·m²) per candidate threshold, O(n²·m²) total. Intended for the
// moderate m of a host-satellite system.
func SolveLimited(t *graph.Tree, host, m int) (*Partition, error) {
	if m < 0 {
		return nil, fmt.Errorf("m = %d: %w", m, ErrBadInput)
	}
	in, err := prepare(t, host)
	if err != nil {
		return nil, err
	}
	best := math.Inf(1)
	var bestPart *Partition
	for _, b := range in.candidates() {
		roots := in.bestOffloadLimited(b, m)
		p := in.buildPartition(roots)
		if p.Bottleneck < best {
			best = p.Bottleneck
			bestPart = p
		}
	}
	return bestPart, nil
}

// bestOffloadLimited maximizes offloaded weight with at most m disjoint
// subtrees of cost ≤ b, returning the chosen roots. Cardinality-constrained
// tree knapsack: dp[v][k] = max weight offloaded within v's subtree using k
// satellites.
func (in *instance) bestOffloadLimited(b float64, m int) []int {
	n := in.t.Len()
	rt := &in.rt
	dp := make([][]float64, n)
	// choice[v][k]: per-child satellite allocation on the optimal path, plus
	// whether v is offloaded whole.
	type pick struct {
		whole bool
		alloc []int32 // satellites given to each child, in adjacency order

	}
	choice := make([]map[int]pick, n)
	for i := n - 1; i >= 0; i-- {
		v := int(rt.Order[i])
		var children []int
		lo, hi := rt.Arcs(v)
		for a := lo; a < hi; a++ {
			if to := rt.To[a]; to != rt.Parent[v] {
				children = append(children, int(to))
			}
		}
		// Combine children with a budget-split DP.
		cur := make([]float64, m+1)
		allocAt := make([][]int32, m+1)
		for k := range allocAt {
			allocAt[k] = make([]int32, 0, len(children))
		}
		for _, c := range children {
			next := make([]float64, m+1)
			nextAlloc := make([][]int32, m+1)
			for k := 0; k <= m; k++ {
				bestW := -1.0
				bestJ := 0
				for j := 0; j <= k; j++ {
					if w := cur[k-j] + dp[c][j]; w > bestW {
						bestW = w
						bestJ = j
					}
				}
				next[k] = bestW
				nextAlloc[k] = append(append([]int32(nil), allocAt[k-bestJ]...), int32(bestJ))
			}
			cur, allocAt = next, nextAlloc
		}
		dp[v] = cur
		choice[v] = make(map[int]pick, m+1)
		for k := 0; k <= m; k++ {
			choice[v][k] = pick{alloc: allocAt[k]}
		}
		if v != in.host && in.cost(v) <= b {
			for k := 1; k <= m; k++ {
				if in.subtreeW[v] > dp[v][k] {
					dp[v][k] = in.subtreeW[v]
					choice[v][k] = pick{whole: true}
				}
			}
		}
	}
	// Reconstruct.
	var roots []int
	type frame struct{ v, k int }
	stack := []frame{{in.host, m}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pc := choice[fr.v][fr.k]
		if pc.whole {
			roots = append(roots, fr.v)
			continue
		}
		idx := 0
		lo, hi := rt.Arcs(fr.v)
		for a := lo; a < hi; a++ {
			if to := rt.To[a]; to != rt.Parent[fr.v] {
				if idx < len(pc.alloc) && pc.alloc[idx] > 0 {
					stack = append(stack, frame{int(to), int(pc.alloc[idx])})
				}
				idx++
			}
		}
	}
	sort.Ints(roots)
	return roots
}
