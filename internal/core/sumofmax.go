package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/obs"
)

// This file implements sum-of-max partitioning on tree task graphs, the
// component form of the sum-of-max chain partition of a tree (Luo, Zhu and
// Jin, arXiv 2503.11526): remove exactly parts−1 edges so that the sum over
// components of the maximum task weight is minimized. On shared-memory
// machines the criterion models per-processor clock budgets set by the
// slowest task assigned to each processor.
//
// SumOfMaxTree is an exact dynamic program over the rooted tree. The state
// at a vertex v is (j, m): j components fully closed inside v's subtree and
// an open component containing v whose heaviest task so far weighs m; the
// value is the minimum total cost (sum of maxes) of the closed components.
// Merging a child c over edge e either cuts e — closing c's open component
// and paying its max — or keeps e, joining the open components. Since a
// state (j, m, cost) can only beat (j, m', cost') when m ≤ m' and
// cost ≤ cost', each j-row is pruned to its Pareto frontier (m ascending,
// cost strictly descending), which keeps tables near-linear in practice;
// the worst case is O(n²·parts) states. The answer closes the root's open
// component at j = parts−1.
//
// As in maxmin.go, K in the engine request carries `parts` for this solver,
// and the partition's K field echoes float64(parts).

// smState is one DP state: j closed components costing cost, plus the open
// component with running maximum m. prev/child/cut record how the state was
// formed, for cut reconstruction: prev indexes the accumulated table before
// this child merge, child indexes the child's final table, and cut says the
// child edge was removed. The initial (pre-children) state has prev = −1.
type smState struct {
	j     int32
	cut   bool
	m     float64
	cost  float64
	prev  int32
	child int32
}

// pruneStates sorts states by (j, m, cost) and keeps, per j, the Pareto
// frontier: strictly increasing m with strictly decreasing cost.
func pruneStates(states []smState) []smState {
	slices.SortFunc(states, func(a, b smState) int {
		if a.j != b.j {
			return cmp.Compare(a.j, b.j)
		}
		if a.m != b.m {
			return cmp.Compare(a.m, b.m)
		}
		return cmp.Compare(a.cost, b.cost)
	})
	out := states[:0]
	lastJ := int32(-1)
	bestCost := math.Inf(1)
	for _, s := range states {
		if s.j != lastJ {
			lastJ, bestCost = s.j, math.Inf(1)
		}
		if s.cost < bestCost {
			out = append(out, s)
			bestCost = s.cost
		}
	}
	return out
}

// SumOfMaxTree partitions a tree task graph into exactly parts components
// minimizing the sum over components of the maximum task weight.
func SumOfMaxTree(ctx context.Context, t *graph.Tree, parts int) (*TreePartition, int64, error) {
	ctx, err := enter(ctx)
	if err != nil {
		return nil, 0, err
	}
	tk := newTicker(ctx)
	if err := t.Validate(); err != nil {
		return nil, tk.n, err
	}
	n := t.Len()
	if err := checkParts(parts, n); err != nil {
		return nil, tk.n, err
	}
	if parts == 1 {
		tp, err := newTreePartition(t, []int{}, float64(parts))
		return tp, tk.n, err
	}

	sc := getScratch()
	defer sc.release()
	sp := obs.Phase(ctx, "postorder-build")
	var csr graph.CSR
	csr, sc.csrBuf = t.BuildCSR(sc.csrBuf)
	sc.order = grow(sc.order, n)
	sc.parentV = grow(sc.parentV, n)
	order, parent := sc.order[:0], sc.parentV
	for v := range parent {
		parent[v] = -1
	}
	order = append(order, 0)
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		lo, hi := csr.Arcs(v)
		for a := lo; a < hi; a++ {
			if to := int(csr.To[a]); to != parent[v] {
				parent[to] = v
				order = append(order, to)
			}
		}
	}
	sp.SetAttr("nodes", n)
	sp.End()

	// acc[v] holds one table per merge step: acc[v][0] is the init state,
	// acc[v][t] the frontier after merging the t-th child. Tables are kept
	// whole (not just the final one) so backtracking can replay each merge.
	acc := make([][][]smState, n)
	maxJ := int32(parts - 1)

	dp := obs.Phase(ctx, "summax-dp")
	// Reverse BFS order is a post-order: children are final before parents.
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		tables := [][]smState{{{j: 0, m: t.NodeW[v], cost: 0, prev: -1, child: -1}}}
		lo, hi := csr.Arcs(v)
		for a := lo; a < hi; a++ {
			c := int(csr.To[a])
			if c == parent[v] {
				continue
			}
			prevTab := tables[len(tables)-1]
			childTab := acc[c][len(acc[c])-1]
			next := make([]smState, 0, len(prevTab)+len(childTab))
			for pi, ps := range prevTab {
				for ci, cs := range childTab {
					if err := tk.tick(); err != nil {
						dp.End()
						return nil, tk.n, err
					}
					// Keep the edge: the open components join.
					if j := ps.j + cs.j; j <= maxJ {
						next = append(next, smState{
							j: j, m: math.Max(ps.m, cs.m), cost: ps.cost + cs.cost,
							prev: int32(pi), child: int32(ci),
						})
					}
					// Cut the edge: the child's open component closes and
					// pays its maximum.
					if j := ps.j + cs.j + 1; j <= maxJ {
						next = append(next, smState{
							j: j, cut: true, m: ps.m, cost: ps.cost + cs.cost + cs.m,
							prev: int32(pi), child: int32(ci),
						})
					}
				}
			}
			tables = append(tables, pruneStates(next))
		}
		acc[v] = tables
	}
	dp.End()

	// Root answer: exactly parts−1 closed components plus the root's open
	// one, which closes now and pays its maximum.
	rootTab := acc[0][len(acc[0])-1]
	bestIdx, bestVal := -1, math.Inf(1)
	for i, s := range rootTab {
		if s.j == maxJ && s.cost+s.m < bestVal {
			bestIdx, bestVal = i, s.cost+s.m
		}
	}
	if bestIdx < 0 {
		// Unreachable: any parts−1 edges of the tree can be cut.
		return nil, tk.n, fmt.Errorf("sum-of-max DP found no %d-component state: %w", parts, ErrInfeasible)
	}

	// Backtrack through the per-step tables with an explicit stack.
	bp := obs.Phase(ctx, "build-partition")
	cut := make([]int, 0, parts-1)
	type frame struct {
		v, state int
	}
	stack := []frame{{v: 0, state: bestIdx}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, si := f.v, f.state
		// Rebuild v's child merge order to map table levels to (child, edge).
		lo, hi := csr.Arcs(v)
		kids := make([][2]int, 0, hi-lo)
		for a := lo; a < hi; a++ {
			if to := int(csr.To[a]); to != parent[v] {
				kids = append(kids, [2]int{to, int(csr.EIdx[a])})
			}
		}
		for level := len(acc[v]) - 1; level > 0; level-- {
			s := acc[v][level][si]
			c, e := kids[level-1][0], kids[level-1][1]
			if s.cut {
				cut = append(cut, e)
			}
			stack = append(stack, frame{v: c, state: int(s.child)})
			si = int(s.prev)
		}
	}
	bp.SetAttr("components", parts)
	bp.End()
	tp, err := newTreePartition(t, graph.NormalizeCut(cut), float64(parts))
	return tp, tk.n, err
}
