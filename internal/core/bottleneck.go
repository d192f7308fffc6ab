package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
)

// This file implements bottleneck minimization on tree task graphs (§2.1,
// Algorithm 2.1): find an edge cut S such that every component of T − S
// weighs at most K and max_{e∈S} δ(e) is minimized.
//
// Algorithm 2.1 adds edges in increasing weight order until the partition is
// feasible. Its correctness argument (§2.1) shows the output is always a
// prefix of the weight-sorted edge list, and feasibility is monotone in the
// prefix length. Bottleneck finds the shortest feasible prefix from the other
// end: it starts from the all-cut forest and un-cuts edges from heaviest to
// lightest with a union-find, and the first union that would exceed K marks
// the last edge the prefix needs. The edges are never sorted as a whole. Two
// counting passes spread them over about 2m buckets keyed by their weight
// bits (graph.EdgeBuckets), and the sweep orders a bucket only when it
// reaches it, so the edges below the stopping point stay unsorted. The
// ordering is expected O(m) when the weights spread over the buckets and
// O(m log m) in the worst case, all weights in one bucket; the union-find
// adds O(m α(n)). A frozen tree, the kind the serving layer shares, keeps
// its edges sorted once (graph.Tree.SortedEdges), and its sweep reads that
// order as one sorted bucket. BottleneckGreedy grows the prefix one edge at
// a time exactly as the paper states (O(n²) with per-step feasibility
// checks) over the same order with every bucket sorted up front.

// prefixFeasible reports whether cutting the first cnt edges of order leaves
// all components of t within the bound k. O(n α(n)) per call over sc's pooled
// union-find arrays. The ticker counts the union sweep and surfaces
// cancellation.
func prefixFeasible(t *graph.Tree, order []int32, cnt int, k float64, tk *ticker, sc *scratch) (bool, error) {
	sc.inCut = grow(sc.inCut, len(t.Edges))
	inCut := sc.inCut
	for i := range inCut {
		inCut[i] = false
	}
	for _, e := range order[:cnt] {
		inCut[e] = true
	}
	parent, weight := sc.resetForest(t)
	for i, e := range t.Edges {
		if err := tk.tick(); err != nil {
			return false, err
		}
		if inCut[i] {
			continue
		}
		ru, rv := ufFind(parent, e.U), ufFind(parent, e.V)
		if ru == rv {
			continue
		}
		parent[rv] = ru
		weight[ru] += weight[rv]
		if weight[ru] > k {
			return false, nil
		}
	}
	for v := range parent {
		if parent[v] < 0 && weight[v] > k {
			return false, nil
		}
	}
	return true, nil
}

// resetForest sets sc's union-find columns to the all-cut forest of t: every
// vertex a root carrying its own weight. parent[v] is v's parent, or −size
// for a root (−1 where the caller does not track sizes); weight[r] is the
// load of the component rooted at r.
func (sc *scratch) resetForest(t *graph.Tree) (parent []int, weight []float64) {
	sc.parentV = grow(sc.parentV, t.Len())
	sc.weight = grow(sc.weight, t.Len())
	for v := range sc.parentV {
		sc.parentV[v] = -1
	}
	copy(sc.weight, t.NodeW)
	return sc.parentV, sc.weight
}

// ufFind returns the root of x in a resetForest union-find, halving the
// path as it goes.
func ufFind(parent []int, x int) int {
	for parent[x] >= 0 {
		if p := parent[x]; parent[p] >= 0 {
			parent[x] = parent[p]
		}
		x = parent[x]
	}
	return x
}

// shortestFeasiblePrefix returns the length of the shortest prefix of the
// weight order whose removal leaves every component of t within k, given
// that each vertex alone fits. bk holds the edges bucketed; each bucket is
// sorted when the sweep reaches it, so on return bk.Order[:cnt] is the
// prefix as a set (the buckets below the stopping point unsorted) and every
// position from cnt on is in sorted order. A frozen tree's order comes as
// one bucket already sorted. The sweep starts from the all-cut
// forest and un-cuts the edges from the back, so after position i the forest
// is t minus the first i edges. The first union that would exceed k, at
// position i, shows that cutting the first i edges is infeasible, and with
// it every shorter prefix, while cutting the first i+1 was feasible. One tick
// per edge visited.
func shortestFeasiblePrefix(t *graph.Tree, bk *graph.EdgeBuckets, k float64, tk *ticker, sc *scratch) (int, error) {
	parent, weight := sc.resetForest(t)
	for b := bk.Len() - 1; b >= 0; b-- {
		bucket := bk.Sort(b, t.Edges)
		for j := len(bucket) - 1; j >= 0; j-- {
			if err := tk.tick(); err != nil {
				return 0, err
			}
			e := t.Edges[bucket[j]]
			// Distinct roots: the edges of a tree never close a cycle.
			ru, rv := ufFind(parent, e.U), ufFind(parent, e.V)
			w := weight[ru] + weight[rv]
			if w > k {
				return bk.Start(b) + j + 1, nil
			}
			if parent[ru] > parent[rv] {
				ru, rv = rv, ru
			}
			parent[ru] += parent[rv]
			parent[rv] = ru
			weight[ru] = w
		}
	}
	return 0, nil
}

// prefixCut returns the first cnt edges of order as a cut in increasing
// index order, nil when cnt is 0.
func prefixCut(order []int32, cnt int, sc *scratch) []int {
	if cnt == 0 {
		return nil
	}
	inCut := grow(sc.inCut, len(order))
	sc.inCut = inCut
	clear(inCut)
	for _, e := range order[:cnt] {
		inCut[e] = true
	}
	// Every index is written and only a cut edge advances j, so the loop
	// has no branch to mispredict; the spare slot takes the writes past
	// the last cut edge.
	cut := make([]int, cnt+1)
	j := 0
	for e, in := range inCut {
		cut[j] = e
		if in {
			j++
		}
	}
	return cut[:cnt]
}

// Bottleneck solves bottleneck minimization with one reverse union-find
// sweep over the weight-bucketed edges, each bucket sorted as the sweep
// reaches it: expected O(n α(n)), O(n log n) in the worst case. A frozen
// tree's sweep reads its cached weight order instead. The returned
// cut is the paper's output — the shortest feasible prefix of the
// weight-sorted edge list.
func Bottleneck(ctx context.Context, t *graph.Tree, k float64) (*TreePartition, int64, error) {
	return bottleneck(ctx, t, k, true)
}

// BottleneckGreedy is the paper-faithful Algorithm 2.1: grow the cut one
// lightest edge at a time and re-check feasibility after each addition,
// O(n²). It returns exactly the same cut as Bottleneck.
func BottleneckGreedy(ctx context.Context, t *graph.Tree, k float64) (*TreePartition, int64, error) {
	return bottleneck(ctx, t, k, false)
}

func bottleneck(ctx context.Context, t *graph.Tree, k float64, sweep bool) (*TreePartition, int64, error) {
	sc := getScratch()
	defer sc.release()
	cut, n, err := bottleneckCut(ctx, t, k, sweep, sc)
	if err != nil {
		return nil, n, err
	}
	tp, err := treePartition(t, cut, forestWeights(t, sc.parentV, len(cut)+1), k)
	return tp, n, err
}

// bottleneckCut returns the optimal bottleneck cut in increasing index order
// and the iteration count, by the reverse sweep or by the paper's greedy,
// working in sc. Both searches leave sc's union-find forest at T − cut.
func bottleneckCut(ctx context.Context, t *graph.Tree, k float64, sweep bool, sc *scratch) ([]int, int64, error) {
	ctx, err := enter(ctx)
	if err != nil {
		return nil, 0, err
	}
	tk := newTicker(ctx)
	if err := checkBound(k); err != nil {
		return nil, 0, err
	}
	if t.MaxNodeWeight() > k {
		return nil, 0, fmt.Errorf("max vertex weight %v > K=%v: %w", t.MaxNodeWeight(), k, ErrInfeasible)
	}
	// A frozen tree's cached order is one sorted bucket. Otherwise the
	// sweep sorts each bucket when it reaches it, and the greedy probes
	// prefixes of the full order.
	sp := obs.Phase(ctx, "edge-sort")
	bk := &sc.edges
	var cached graph.EdgeBuckets
	if t.Frozen() {
		cached = graph.SortedBucket(t.SortedEdges())
		bk = &cached
	} else {
		bk.Fill(t.Edges)
	}
	if !sweep {
		bk.SortAll(t.Edges)
	}
	order := bk.Order
	obs.SetAttr(sp, "edges", len(order))
	sp.End()
	// One span for the whole feasibility sweep in both modes: a span per
	// greedy probe would cost O(n) allocations on traced solves for no extra
	// phase information.
	ss := obs.Phase(ctx, "feasibility-sweep")
	var cnt int
	if sweep {
		cnt, err = shortestFeasiblePrefix(t, bk, k, tk, sc)
		if err != nil {
			ss.End()
			return nil, tk.n, err
		}
		obs.SetAttr(ss, "edges", tk.n)
	} else {
		// Every edge cut leaves single vertices, all ≤ K by the check above,
		// so the loop stops by cnt = len(order).
		for cnt = 0; cnt <= len(order); cnt++ {
			ok, err := prefixFeasible(t, order, cnt, k, tk, sc)
			if err != nil {
				ss.End()
				return nil, tk.n, err
			}
			if ok {
				break
			}
		}
		obs.SetAttr(ss, "probes", cnt+1)
	}
	obs.SetAttr(ss, "prefix", cnt)
	ss.End()
	return prefixCut(order, cnt, sc), tk.n, nil
}

// forestWeights returns the weights of the comps components of a
// resetForest union-find over t, ordered by smallest contained vertex and
// each summed in vertex order, as graph.Tree.ComponentWeights orders and
// sums them. It marks each root at its component's first vertex by
// overwriting the root's −size with −1−n−label, below every −size.
func forestWeights(t *graph.Tree, parent []int, comps int) []float64 {
	n := len(parent)
	ws := make([]float64, comps)
	next := 0
	for v, w := range t.NodeW {
		r := ufFind(parent, v)
		if parent[r] >= -n {
			parent[r] = -1 - n - next
			next++
		}
		ws[-1-n-parent[r]] += w
	}
	return ws
}
