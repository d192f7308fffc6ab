package core

import (
	"cmp"
	"context"
	"fmt"
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
// PartitionTree chains the §2.1 and §2.2 algorithms. Its contraction labels
// the bottleneck components once (graph.Contract, one union-find pass); the
// contracted tree is a tree by construction, so it is not validated, and
// the minproc stage runs the cut-only sweep MinProcessors wraps. The
// final component weights are read off the contraction's vertex labels, so
// the input tree is never labelled a second time.

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
	tp, err := newTreePartition(t, graph.NormalizeCut(cut), k)
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
	csr, order, parent, _ := sc.rootTree(ctx, t)
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
		v := order[i]
		total := t.NodeW[v]
		lo, hi := csr.Arcs(v)
		for a := lo; a < hi; a++ {
			if to := int(csr.To[a]); to != parent[v] {
				total += res[to]
			}
		}
		if total <= k {
			res[v] = total
			continue
		}
		// Prune the heaviest absorbed leaves first (paper step 5: "sort the
		// leaves adjacent to v in decreasing order of weights ... find
		// minimum r such that W − Σ_{i≤r} w_i ≤ K"). Each candidate load is
		// summed afresh, v's own weight plus the kept children lightest
		// first: subtracting pruned children from total drifts from the
		// exact sum on float weights. Pruning every child leaves
		// t.NodeW[v] ≤ k, so the loop always finds r.
		children = children[:0]
		for a := lo; a < hi; a++ {
			if to := int(csr.To[a]); to != parent[v] {
				children = append(children, childSlot{res: res[to], edge: int(csr.EIdx[a])})
			}
		}
		slices.SortFunc(children, func(a, b childSlot) int { return cmp.Compare(b.res, a.res) })
		load, r := t.NodeW[v], len(children)
		for r > 0 && load+children[r-1].res <= k {
			r--
			load += children[r].res
		}
		for _, c := range children[:r] {
			cut = append(cut, c.edge)
		}
		res[v] = load
	}
	obs.SetAttr(sweep, "pruned", len(cut))
	sweep.End()
	return cut, tk.n, nil
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
// the contracted tree to undo the over-fragmentation of the greedy
// bottleneck cut. The final cut is a subset of the bottleneck cut, so its
// bottleneck never exceeds the optimum, and among such cuts it uses the
// minimum number of processors. The contracted tree is a tree by
// construction, so the minproc stage runs its cut-only sweep on it
// directly, and only the final cut becomes a TreePartition, its component
// weights read off the contraction's labels. The iteration count is summed
// over the pipeline's stages.
func PartitionTree(ctx context.Context, t *graph.Tree, k float64) (*TreePartition, int64, error) {
	// Each pipeline stage runs inside its own span, so the stage's internal
	// phase spans (edge-sort, feasibility-sweep, leaf-pruning) nest under it.
	bctx, sp := obs.StartSpan(ctx, "stage:bottleneck")
	sc := getScratch()
	bcut, it1, err := bottleneckCut(bctx, t, k, true, sc)
	sc.release()
	sp.End()
	if err != nil {
		return nil, it1, err
	}
	sp = obs.Phase(ctx, "contract")
	contraction, err := t.Contract(bcut)
	sp.End()
	if err != nil {
		return nil, it1, err
	}
	mctx, sp := obs.StartSpan(ctx, "stage:minproc")
	cut, it2, err := minProcessorsCut(mctx, contraction.Tree, k)
	sp.End()
	if err != nil {
		return nil, it1 + it2, err
	}
	// Contracted edge i is original edge CutEdges[i], and CutEdges is
	// increasing, so the sorted contracted cut maps to a sorted cut.
	slices.Sort(cut)
	ws, err := contraction.ComponentWeights(cut)
	if err != nil {
		return nil, it1 + it2, err
	}
	for i, ce := range cut {
		cut[i] = contraction.CutEdges[ce]
	}
	tp, err := treePartition(t, cut, ws, k)
	return tp, it1 + it2, err
}
