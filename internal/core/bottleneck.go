package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
// bits, and the sweep orders a bucket only when it reaches it, so the edges
// below the stopping point stay unsorted. The ordering is expected O(m) when
// the weights spread over the buckets and O(m log m) in the worst case, all
// weights in one bucket; the union-find adds O(m α(n)). BottleneckGreedy
// grows the prefix one edge at a time exactly as the paper states (O(n²) with
// per-step feasibility checks) over the same order with every bucket sorted
// up front.

// weightKey maps a validated (non-negative) edge weight to its IEEE-754
// bits, which order like the weights themselves; −0 is mapped to +0 so the
// two tie.
func weightKey(w float64) uint64 {
	if w == 0 {
		return 0
	}
	return math.Float64bits(w)
}

// edgeBuckets is the edges of a tree spread over weight buckets: bucket b
// holds order[start[b]:start[b+1]], and every weight key in bucket b is below
// every key in bucket b+1.
type edgeBuckets struct {
	order []int
	start []int32
	// Key k falls in bucket (k−lo)>>shift; idxBits is the bit length of the
	// edge count.
	lo             uint64
	shift, idxBits uint
}

// bucketEdges spreads the edge indices of t over at most 2m buckets by their
// weight keys, in two counting passes after a min/max scan, each bucket in
// index order. The slices live in sc.
func bucketEdges(t *graph.Tree, sc *scratch) edgeBuckets {
	m := len(t.Edges)
	sc.order = grow(sc.order, m)
	bk := edgeBuckets{order: sc.order, idxBits: uint(bits.Len(uint(m)))}
	if m == 0 {
		return bk
	}
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, e := range t.Edges {
		key := weightKey(e.W)
		lo, hi = min(lo, key), max(hi, key)
	}
	// The smallest shift that fits the key span into 2m buckets.
	for (hi-lo)>>bk.shift >= uint64(2*m) {
		bk.shift++
	}
	bk.lo = lo
	nb := int((hi-lo)>>bk.shift) + 1
	sc.bucketStart = grow(sc.bucketStart, nb+1)
	start := sc.bucketStart
	clear(start)
	for _, e := range t.Edges {
		start[(weightKey(e.W)-lo)>>bk.shift]++
	}
	for b := 1; b <= nb; b++ {
		start[b] += start[b-1]
	}
	// start[b] is now the end of bucket b. Scattering the edges from the
	// last down, with start[b] as bucket b's cursor, fills each bucket back
	// to front in index order and leaves start[b] at the bucket's start.
	for i := m - 1; i >= 0; i-- {
		b := (weightKey(t.Edges[i].W) - lo) >> bk.shift
		start[b]--
		bk.order[start[b]] = i
	}
	bk.start = start
	return bk
}

// insertionMax is the largest bucket sort orders by insertion sort.
const insertionMax = 12

// sort orders bucket b by (weight, index), −0 tying with +0, and returns
// it. A bucket comes out of bucketEdges in index order, so insertion sort
// on weight alone keeps ties in index order. Above insertionMax edges it
// sorts packed keys instead: a key's offset in its bucket is below 2^shift,
// and since the span of the keys reaches m·2^shift and stays below 2^63,
// offset and index fit one uint64 together, which slices.Sort orders
// without a comparison callback.
func (bk *edgeBuckets) sort(b int, edges []graph.Edge, sc *scratch) []int {
	bucket := bk.order[bk.start[b]:bk.start[b+1]]
	if len(bucket) <= insertionMax {
		for i := 1; i < len(bucket); i++ {
			x := bucket[i]
			wx := edges[x].W
			j := i
			for ; j > 0 && wx < edges[bucket[j-1]].W; j-- {
				bucket[j] = bucket[j-1]
			}
			bucket[j] = x
		}
		return bucket
	}
	sc.bucketKeys = grow(sc.bucketKeys, len(bucket))
	keys := sc.bucketKeys
	offset := uint64(1)<<bk.shift - 1
	for j, e := range bucket {
		keys[j] = (weightKey(edges[e].W)-bk.lo)&offset<<bk.idxBits | uint64(e)
	}
	slices.Sort(keys)
	index := uint64(1)<<bk.idxBits - 1
	for j, key := range keys {
		bucket[j] = int(key & index)
	}
	return bucket
}

// sortedEdgeOrder returns edge indices sorted by increasing weight into
// sc.order, breaking ties by index (−0 ties with +0): bucketEdges with every
// bucket sorted.
func sortedEdgeOrder(t *graph.Tree, sc *scratch) []int {
	bk := bucketEdges(t, sc)
	for b := 0; b+1 < len(bk.start); b++ {
		bk.sort(b, t.Edges, sc)
	}
	return bk.order
}

// prefixFeasible reports whether cutting the first cnt edges of order leaves
// all components of t within the bound k. O(n α(n)) per call over sc's pooled
// union-find arrays. The ticker counts the union sweep and surfaces
// cancellation.
func prefixFeasible(t *graph.Tree, order []int, cnt int, k float64, tk *ticker, sc *scratch) (bool, error) {
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
// sorted when the sweep reaches it, so on return bk.order[:cnt] is the
// prefix as a set (the buckets below the stopping point unsorted) and every
// position from cnt on is in sorted order. The sweep starts from the all-cut
// forest and un-cuts the edges from the back, so after position i the forest
// is t minus the first i edges. The first union that would exceed k, at
// position i, shows that cutting the first i edges is infeasible, and with
// it every shorter prefix, while cutting the first i+1 was feasible. One tick
// per edge visited.
func shortestFeasiblePrefix(t *graph.Tree, bk *edgeBuckets, k float64, tk *ticker, sc *scratch) (int, error) {
	parent, weight := sc.resetForest(t)
	for b := len(bk.start) - 2; b >= 0; b-- {
		bucket := bk.sort(b, t.Edges, sc)
		for j := len(bucket) - 1; j >= 0; j-- {
			if err := tk.tick(); err != nil {
				return 0, err
			}
			e := t.Edges[bucket[j]]
			// Distinct roots: the edges of a tree never close a cycle.
			ru, rv := ufFind(parent, e.U), ufFind(parent, e.V)
			w := weight[ru] + weight[rv]
			if w > k {
				return int(bk.start[b]) + j + 1, nil
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
func prefixCut(order []int, cnt int, sc *scratch) []int {
	if cnt == 0 {
		return nil
	}
	inCut := grow(sc.inCut, len(order))
	sc.inCut = inCut
	clear(inCut)
	for _, e := range order[:cnt] {
		inCut[e] = true
	}
	cut := make([]int, 0, cnt)
	for e, in := range inCut {
		if in {
			cut = append(cut, e)
		}
	}
	return cut
}

// Bottleneck solves bottleneck minimization with one reverse union-find
// sweep over the weight-bucketed edges, each bucket sorted as the sweep
// reaches it: expected O(n α(n)), O(n log n) in the worst case. The returned
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
	// The sweep sorts each bucket when it reaches it; the greedy probes
	// prefixes of the full order.
	sp := obs.Phase(ctx, "edge-sort")
	var bk edgeBuckets
	if sweep {
		bk = bucketEdges(t, sc)
	} else {
		bk.order = sortedEdgeOrder(t, sc)
	}
	order := bk.order
	sp.SetAttr("edges", len(order))
	sp.End()
	// One span for the whole feasibility sweep in both modes: a span per
	// greedy probe would cost O(n) allocations on traced solves for no extra
	// phase information.
	ss := obs.Phase(ctx, "feasibility-sweep")
	var cnt int
	if sweep {
		cnt, err = shortestFeasiblePrefix(t, &bk, k, tk, sc)
		if err != nil {
			ss.End()
			return nil, tk.n, err
		}
		ss.SetAttr("edges", tk.n)
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
		ss.SetAttr("probes", cnt+1)
	}
	ss.SetAttr("prefix", cnt)
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
