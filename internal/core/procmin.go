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

// This file implements processor minimization on tree task graphs (§2.2,
// Algorithm 2.2): find an edge cut S such that every component of T − S
// weighs at most K and the number of components (equivalently |S|, since
// removing one tree edge creates exactly one extra component) is minimum.
//
// The paper's recursion repeatedly selects an internal node v adjacent to at
// most one internal node, absorbs v's leaves if they fit within K, and
// otherwise prunes the heaviest leaves until the remainder fits. Processing
// vertices of a rooted tree in post-order visits exactly such nodes — every
// child of v has already been reduced to a (super-)leaf — so MinProcessors
// realizes Algorithm 2.2 as a single post-order sweep with the per-node
// sort-and-prune step, the same greedy that Kundu and Misra proved produces
// the minimum number of parts. O(Σ d(v) log d(v)) = O(n log n).
//
// PartitionTree chains the §2.1 and §2.2 algorithms. The paper contracts
// the bottleneck components into a super-node tree and runs Algorithm 2.2
// on it (graph.Tree.Contract builds that tree, and the tests compare
// against it). PartitionTree builds no second tree: one walk over the input
// tree's rooted view, which a frozen tree keeps cached, labels the
// super-nodes, sums them and lists each one's children in the contracted
// tree's arc order, and the same sort-and-prune step (prune) runs over the
// labels, so the cut, every weight bit and the iteration count are those
// of Algorithm 2.2 on the contracted tree. The final cut, in the input
// tree's edges, becomes the answer as every other tree answer does
// (NewTreePartition), so its component weights are the input tree's own.

// MinProcessors solves processor minimization with Algorithm 2.2.
func MinProcessors(ctx context.Context, t *graph.Tree, k float64) (*TreePartition, int64, error) {
	ctx, err := enter(ctx)
	if err != nil {
		return nil, 0, err
	}
	if err := checkBound(k); err != nil {
		return nil, 0, err
	}
	cut, iters, err := minProcessorsCut(ctx, t, k)
	if err != nil {
		return nil, iters, err
	}
	tp, err := NewTreePartition(t, graph.NormalizeCut(cut), k)
	return tp, iters, err
}

// minProcessorsCut returns a minimum-processor cut of the valid tree t for
// the valid bound k, in pruning order, and the iteration count.
func minProcessorsCut(ctx context.Context, t *graph.Tree, k float64) ([]int, int64, error) {
	ctx, err := enter(ctx)
	if err != nil {
		return nil, 0, err
	}
	tk := newTicker(ctx)
	if t.MaxNodeWeight() > k {
		return nil, 0, fmt.Errorf("max vertex weight %v > K=%v: %w", t.MaxNodeWeight(), k, ErrInfeasible)
	}
	n := t.Len()
	sc := getScratch()
	defer sc.release()
	rt := sc.rootTree(ctx, t)
	// res[v] is the weight of the super-node that v has been merged into so
	// far: v plus all absorbed descendant subtrees.
	sc.res = grow(sc.res, n)
	res := sc.res
	copy(res, t.NodeW)
	var cut []int
	children := sc.children[:0]
	defer func() { sc.children = children }()
	// One span for the whole post-order absorb/prune sweep; per-node rounds
	// are summarized by the pruned-edge attr rather than per-round spans.
	sweep := obs.Phase(ctx, "leaf-pruning")
	for i := n - 1; i >= 0; i-- {
		if err := tk.tick(); err != nil {
			sweep.End()
			return nil, tk.n, err
		}
		v := rt.Order[i]
		total := t.NodeW[v]
		lo, hi := rt.Arcs(int(v))
		for a := lo; a < hi; a++ {
			if to := rt.To[a]; to != rt.Parent[v] {
				total += res[to]
			}
		}
		if total <= k {
			res[v] = total
			continue
		}
		children = children[:0]
		for a := lo; a < hi; a++ {
			if to := rt.To[a]; to != rt.Parent[v] {
				children = append(children, childSlot{res: res[to], edge: int(rt.EIdx[a])})
			}
		}
		res[v], cut = prune(t.NodeW[v], children, k, cut)
	}
	obs.SetAttr(sweep, "pruned", len(cut))
	sweep.End()
	return cut, tk.n, nil
}

// prune is the sort-and-prune step of Algorithm 2.2 at a vertex of weight w
// whose absorbed children, listed in arc order, do not all fit with it
// within k. It appends the edges of the pruned children to cut and returns
// the vertex's load with the rest absorbed. The heaviest absorbed leaves go
// first (paper step 5: "sort the leaves adjacent to v in decreasing order
// of weights ... find minimum r such that W − Σ_{i≤r} w_i ≤ K"). Each
// candidate load is summed afresh, w plus the kept children lightest first:
// subtracting pruned children from the total drifts from the exact sum on
// float weights. Pruning every child leaves w ≤ k, so the loop always
// finds r.
func prune(w float64, children []childSlot, k float64, cut []int) (float64, []int) {
	slices.SortFunc(children, func(a, b childSlot) int { return cmp.Compare(b.res, a.res) })
	load, r := w, len(children)
	for r > 0 && load+children[r-1].res <= k {
		r--
		load += children[r].res
	}
	for _, c := range children[:r] {
		cut = append(cut, c.edge)
	}
	return load, cut
}

// MinProcessorsPath solves processor minimization on a linear task graph by
// first-fit accumulation, which is optimal for paths: O(n).
func MinProcessorsPath(ctx context.Context, p *graph.Path, k float64) (*PathPartition, int64, error) {
	ctx, err := enter(ctx)
	if err != nil {
		return nil, 0, err
	}
	tk := newTicker(ctx)
	if err := checkBound(k); err != nil {
		return nil, 0, err
	}
	if p.MaxNodeWeight() > k {
		return nil, 0, fmt.Errorf("max vertex weight %v > K=%v: %w", p.MaxNodeWeight(), k, ErrInfeasible)
	}
	var cut []int
	var load float64
	sweep := obs.Phase(ctx, "first-fit-sweep")
	for i, w := range p.NodeW {
		if err := tk.tick(); err != nil {
			sweep.End()
			return nil, tk.n, err
		}
		if load+w > k {
			cut = append(cut, i-1)
			load = 0
		}
		load += w
	}
	obs.SetAttr(sweep, "tasks", p.Len())
	sweep.End()
	pp, err := newPathPartition(p, cut, k)
	return pp, tk.n, err
}

// PartitionTree runs the paper's full tree pipeline (§2.2): bottleneck
// minimization to fix the smallest achievable bottleneck, contraction of the
// resulting components into super-nodes, then processor minimization over
// the super-node tree to undo the over-fragmentation of the greedy
// bottleneck cut. The final cut is a subset of the bottleneck cut, so its
// bottleneck never exceeds the optimum, and among such cuts it uses the
// minimum number of processors. The super-node tree is read off the input
// tree's rooted view (superMinProcessorsCut), and the final cut becomes a
// TreePartition of the input tree. The iteration count is summed over the
// pipeline's stages.
func PartitionTree(ctx context.Context, t *graph.Tree, k float64) (*TreePartition, int64, error) {
	// Each pipeline stage runs inside its own span, so the stage's internal
	// phase spans (edge-sort, feasibility-sweep, postorder-build, contract,
	// leaf-pruning) nest under it.
	sc := getScratch()
	defer sc.release()
	bctx, sp := obs.StartSpan(ctx, "stage:bottleneck")
	bcut, it1, err := bottleneckCut(bctx, t, k, true, sc)
	sp.End()
	if err != nil {
		return nil, it1, err
	}
	mctx, sp := obs.StartSpan(ctx, "stage:minproc")
	cut, it2, err := superMinProcessorsCut(mctx, t, bcut, k, sc)
	sp.End()
	if err != nil {
		return nil, it1 + it2, err
	}
	slices.Sort(cut)
	tp, err := NewTreePartition(t, cut, k)
	return tp, it1 + it2, err
}

// superArc is one edge of the super-node tree, seen from its parent
// super-node: the child super-node and the input tree's edge behind it.
type superArc struct{ to, edge int32 }

// superMinProcessorsCut is minProcessorsCut on the super-node tree that
// graph.Tree.Contract builds from T − bcut, run without building it: the
// same cut, in t's edge indices and pruning order, the same iteration count
// and the same errors. bcut must be strictly increasing.
//
// One walk down t's rooted view labels the super-nodes: the root and each
// vertex whose parent edge is in bcut open one, so a super-node's label
// follows the BFS order of its top vertex and every child comes after its
// parent. Each super-node is summed in vertex order, as Contract sums it,
// and the cut edges are counting-sorted under their parent super-node in
// increasing edge index, which is the contracted tree's arc order. The
// sort-and-prune sweep then runs over the labels in reverse.
func superMinProcessorsCut(ctx context.Context, t *graph.Tree, bcut []int, k float64, sc *scratch) ([]int, int64, error) {
	ctx, err := enter(ctx)
	if err != nil {
		return nil, 0, err
	}
	tk := newTicker(ctx)
	rt := sc.rootTree(ctx, t)
	sp := obs.Phase(ctx, "contract")
	w, off, arcs := sc.superNodes(t, rt, bcut)
	mw := graph.MaxWeight(w)
	sp.End()
	if mw > math.MaxFloat64 {
		return nil, 0, contractOverflow(sc.superLabel, w)
	}
	if mw > k {
		return nil, 0, fmt.Errorf("max vertex weight %v > K=%v: %w", mw, k, ErrInfeasible)
	}
	// res[s] is the weight of super-node s plus its absorbed descendants.
	sc.res = grow(sc.res, len(w))
	res := sc.res
	// The cut is a subset of bcut, which the arcs have replaced.
	cut := bcut[:0]
	children := sc.children[:0]
	defer func() { sc.children = children }()
	sweep := obs.Phase(ctx, "leaf-pruning")
	for s := len(w) - 1; s >= 0; s-- {
		if err := tk.tick(); err != nil {
			sweep.End()
			return nil, tk.n, err
		}
		kids := arcs[off[s]:off[s+1]]
		total := w[s]
		for _, a := range kids {
			total += res[a.to]
		}
		if total <= k {
			res[s] = total
			continue
		}
		children = children[:0]
		for _, a := range kids {
			children = append(children, childSlot{res: res[a.to], edge: int(a.edge)})
		}
		res[s], cut = prune(w[s], children, k, cut)
	}
	obs.SetAttr(sweep, "pruned", len(cut))
	sweep.End()
	if len(cut) == 0 {
		// No cut is nil, as minProcessorsCut returns it.
		return nil, tk.n, nil
	}
	return cut, tk.n, nil
}

// superNodes labels the super-nodes of T − bcut in one walk over rt, as
// superMinProcessorsCut describes, and returns their weights and their
// child arcs: super-node s's children are arcs[off[s]:off[s+1]]. The
// labels, weights and arcs live in sc.
func (sc *scratch) superNodes(t *graph.Tree, rt graph.Rooted, bcut []int) (w []float64, off []int32, arcs []superArc) {
	sc.inCut = grow(sc.inCut, len(t.Edges))
	inCut := sc.inCut
	clear(inCut)
	for _, e := range bcut {
		inCut[e] = true
	}
	sc.superLabel = grow(sc.superLabel, t.Len())
	label := sc.superLabel
	label[rt.Order[0]] = 0
	next := int32(1)
	for _, v := range rt.Order[1:] {
		if inCut[rt.ParentEdge[v]] {
			label[v] = next
			next++
		} else {
			label[v] = label[rt.Parent[v]]
		}
	}
	c := len(bcut) + 1
	sc.weight = grow(sc.weight, c)
	w = sc.weight
	clear(w)
	for v, x := range t.NodeW {
		w[label[v]] += x
	}
	// A counting sort of the cut edges by parent super-node: off[s] counts,
	// then, as each arc is placed, walks from s's start to its end, and the
	// shift down at the end puts it back at the start.
	sc.superOff = grow(sc.superOff, c+1)
	off = sc.superOff
	clear(off)
	sc.superArcs = grow(sc.superArcs, len(bcut))
	arcs = sc.superArcs
	for _, e := range bcut {
		p, _ := cutEnds(t.Edges[e], e, rt.ParentEdge)
		off[label[p]+1]++
	}
	for s := 1; s <= c; s++ {
		off[s] += off[s-1]
	}
	for _, e := range bcut {
		p, ch := cutEnds(t.Edges[e], e, rt.ParentEdge)
		ps := label[p]
		arcs[off[ps]] = superArc{to: label[ch], edge: int32(e)}
		off[ps]++
	}
	for s := c; s > 0; s-- {
		off[s] = off[s-1]
	}
	off[0] = 0
	return w, off, arcs
}

// cutEnds returns the parent and the child end of ed, edge e of a tree
// whose vertices have the parent edges parentEdge.
func cutEnds(ed graph.Edge, e int, parentEdge []int32) (parent, child int) {
	if int(parentEdge[ed.U]) == e {
		return ed.V, ed.U
	}
	return ed.U, ed.V
}

// contractOverflow returns the error graph.Tree.Contract returns when
// super-node sums overflow to +Inf, naming the first such super-node in
// Contract's numbering, by smallest contained vertex; nil if none did.
func contractOverflow(label []int32, w []float64) error {
	seen := make([]bool, len(w))
	number := 0
	for _, l := range label {
		if seen[l] {
			continue
		}
		if w[l] > math.MaxFloat64 {
			return fmt.Errorf("contract: NodeW[%d] = %v: %w", number, w[l], graph.ErrBadWeight)
		}
		seen[l] = true
		number++
	}
	return nil
}
