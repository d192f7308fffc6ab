package treecut

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/obs"
)

// This file holds exact and heuristic solvers for the NP-complete general
// problem: minimum-weight edge cut of a tree such that every component
// weighs at most K.
//
//   - TreeBandwidthExact: pseudo-polynomial DP over integer vertex weights,
//     O(n·K²) worst case — exact, the standard antidote to Theorem 1's
//     knapsack hardness when weights are bounded integers.
//   - TreeBandwidthBB: branch and bound over edge subsets for real weights,
//     exact but exponential (n ≤ ~24).
//   - TreeBandwidthGreedy: post-order accumulate-and-cut heuristic with a
//     redundancy-elimination pass; no optimality guarantee (Theorem 1 says
//     none is cheap), evaluated against the exact DP in tests and benches.
//
// Each solver is one context-aware entry point: it takes a valid tree as
// its precondition (engine.Solve checks a request's graph once, before the
// entry runs), polls the context inside its main loop (so a cancelled
// context aborts a long solve promptly), reports main-loop iterations, and
// opens obs phase spans — the shape the engine registry and the async jobs
// subsystem consume.

// pollEvery is the iteration stride between context checks; a power of two
// so the check compiles to a mask.
const pollEvery = 4096

// rootOrder returns a BFS order from vertex 0 plus parent and parent-edge
// arrays; reversing the order gives a post-order.
func rootOrder(t *graph.Tree) (order, parent, parentEdge []int) {
	n := t.Len()
	adj := t.Adjacency()
	order = make([]int, 0, n)
	parent = make([]int, n)
	parentEdge = make([]int, n)
	for v := range parent {
		parent[v] = -1
		parentEdge[v] = -1
	}
	order = append(order, 0)
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		for _, a := range adj[v] {
			if a.To != parent[v] {
				parent[a.To] = v
				parentEdge[a.To] = a.Edge
				order = append(order, a.To)
			}
		}
	}
	return order, parent, parentEdge
}

// TreeBandwidthExact computes a minimum-weight feasible cut for a tree with
// integral vertex weights and integral bound k. It refuses instances whose
// n·k product would be excessive. ctx is polled inside the DP sweep, and the
// "exact-dp" and "dp-reconstruct" phases open spans when it carries a trace.
func TreeBandwidthExact(ctx context.Context, t *graph.Tree, k int) (*CutResult, int64, error) {
	if k <= 0 {
		return nil, 0, fmt.Errorf("bound %d: %w", k, ErrBadInput)
	}
	n := t.Len()
	if n*k > 50_000_000 {
		return nil, 0, fmt.Errorf("n*K = %d: %w", n*k, ErrTooLarge)
	}
	var iters int64
	wInt := make([]int, n)
	for v, w := range t.NodeW {
		if w != math.Trunc(w) || w < 0 {
			return nil, 0, fmt.Errorf("vertex %d weight %v not a non-negative integer: %w", v, w, ErrBadInput)
		}
		wInt[v] = int(w)
		if wInt[v] > k {
			return nil, 0, fmt.Errorf("vertex %d weight %d > K=%d: %w", v, wInt[v], k, ErrInfeasible)
		}
	}
	order, parent, parentEdge := rootOrder(t)
	adj := t.Adjacency()
	// dp[v][w] = min cut weight within v's subtree such that the component
	// containing v weighs exactly w; math.Inf(1) if impossible.
	// choice[v] records, per child, whether the child edge was cut and at
	// which component weight, enough to reconstruct the cut.
	dp := make([][]float64, n)
	type childDecision struct {
		child int
		// cutAt[w] reports whether, on the optimal path to component weight
		// w after merging this child, the child edge was cut; childW[w] is
		// the component weight contributed by (or chosen inside) the child.
		cutAt  []bool
		childW []int
	}
	decisions := make([][]childDecision, n)
	// bestW[v] is the component weight achieving min_w dp[v][w]; bestVal[v]
	// the value.
	bestW := make([]int, n)
	bestVal := make([]float64, n)
	sweep := obs.Phase(ctx, "exact-dp")
	obs.SetAttr(sweep, "n", n)
	obs.SetAttr(sweep, "k", k)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		cur := make([]float64, k+1)
		for w := range cur {
			cur[w] = math.Inf(1)
		}
		cur[wInt[v]] = 0
		for _, a := range adj[v] {
			if a.To == parent[v] {
				continue
			}
			c := a.To
			cdp := dp[c]
			next := make([]float64, k+1)
			dec := childDecision{child: c, cutAt: make([]bool, k+1), childW: make([]int, k+1)}
			for w := 0; w <= k; w++ {
				// One iteration per DP row keeps the poll cadence
				// size-independent; the row itself is O(w) work.
				if iters++; iters&(pollEvery-1) == 0 {
					select {
					case <-ctx.Done():
						sweep.End()
						return nil, iters, ctx.Err()
					default:
					}
				}
				next[w] = math.Inf(1)
				if !math.IsInf(cur[w], 1) {
					// Cut the child edge: pay edge weight plus the child's
					// best standalone subtree cost.
					if v2 := cur[w] + t.Edges[a.Edge].W + bestVal[c]; v2 < next[w] {
						next[w] = v2
						dec.cutAt[w] = true
						dec.childW[w] = bestW[c]
					}
				}
				// Keep the child edge: combine component weights (wc = 0 is
				// possible when the child subtree has zero-weight vertices).
				for wc := 0; wc <= w; wc++ {
					if math.IsInf(cdp[wc], 1) || math.IsInf(cur[w-wc], 1) {
						continue
					}
					if v2 := cur[w-wc] + cdp[wc]; v2 < next[w] {
						next[w] = v2
						dec.cutAt[w] = false
						dec.childW[w] = wc
					}
				}
			}
			cur = next
			decisions[v] = append(decisions[v], dec)
		}
		dp[v] = cur
		bestVal[v] = math.Inf(1)
		for w := 0; w <= k; w++ {
			if cur[w] < bestVal[v] {
				bestVal[v] = cur[w]
				bestW[v] = w
			}
		}
		if math.IsInf(bestVal[v], 1) {
			sweep.End()
			return nil, iters, ErrInfeasible
		}
	}
	sweep.End()
	// Reconstruct: walk down from the root, tracking each vertex's chosen
	// component weight and unwinding the per-child decisions in reverse.
	rec := obs.Phase(ctx, "dp-reconstruct")
	defer rec.End()
	res := &CutResult{}
	type frame struct {
		v, w int
	}
	stack := []frame{{v: 0, w: bestW[0]}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		w := fr.w
		// Decisions were appended child by child; undo them last-to-first.
		for di := len(decisions[fr.v]) - 1; di >= 0; di-- {
			dec := decisions[fr.v][di]
			if dec.cutAt[w] {
				res.Cut = append(res.Cut, parentEdge[dec.child])
				stack = append(stack, frame{v: dec.child, w: dec.childW[w]})
				// component weight at v unchanged by a cut child
			} else {
				stack = append(stack, frame{v: dec.child, w: dec.childW[w]})
				w -= dec.childW[w]
			}
		}
	}
	sort.Ints(res.Cut)
	for _, e := range res.Cut {
		res.Weight += t.Edges[e].W
	}
	return res, iters, nil
}

// errCancelled distinguishes a context abort from an exhausted search inside
// the branch-and-bound recursion.
var errCancelled = fmt.Errorf("treecut: cancelled")

// TreeBandwidthBB computes a minimum-weight feasible cut for real-weighted
// trees by branch and bound over edges in decreasing weight order, pruning
// with the running best. Exact; exponential; refuses more than 24 edges. ctx
// is polled at every pollEvery-th search node, inside a "branch-and-bound"
// phase span.
func TreeBandwidthBB(ctx context.Context, t *graph.Tree, k float64) (*CutResult, int64, error) {
	if !(k > 0) || math.IsNaN(k) || math.IsInf(k, 0) {
		return nil, 0, fmt.Errorf("bound %v: %w", k, ErrBadInput)
	}
	if t.MaxNodeWeight() > k {
		return nil, 0, fmt.Errorf("max vertex weight %v > K=%v: %w", t.MaxNodeWeight(), k, ErrInfeasible)
	}
	m := t.NumEdges()
	if m > 24 {
		return nil, 0, fmt.Errorf("%d edges: %w", m, ErrTooLarge)
	}
	span := obs.Phase(ctx, "branch-and-bound")
	obs.SetAttr(span, "edges", m)
	defer span.End()
	best := math.Inf(1)
	var bestCut []int
	var cur []int
	var iters int64
	feasible := func(cut []int) bool {
		maxW, err := t.MaxComponentWeight(cut)
		return err == nil && maxW <= k
	}
	var rec func(pos int, weight float64) error
	rec = func(pos int, weight float64) error {
		if iters++; iters&(pollEvery-1) == 0 {
			select {
			case <-ctx.Done():
				return errCancelled
			default:
			}
		}
		if weight >= best {
			return nil
		}
		if pos == m {
			if feasible(append([]int(nil), cur...)) {
				best = weight
				bestCut = append(bestCut[:0], cur...)
			}
			return nil
		}
		// Branch: skip edge pos first (prefer cheaper cuts), then cut it.
		if err := rec(pos+1, weight); err != nil {
			return err
		}
		cur = append(cur, pos)
		err := rec(pos+1, weight+t.Edges[pos].W)
		cur = cur[:len(cur)-1]
		return err
	}
	if err := rec(0, 0); err != nil {
		return nil, iters, ctx.Err()
	}
	if math.IsInf(best, 1) {
		return nil, iters, ErrInfeasible
	}
	sort.Ints(bestCut)
	return &CutResult{Cut: bestCut, Weight: best}, iters, nil
}

// TreeBandwidthGreedy computes a feasible cut heuristically: a post-order
// sweep that, whenever the accumulated component around a vertex overflows
// K, cuts absorbed child edges in decreasing weight-per-load order until it
// fits; then a redundancy pass re-admits cut edges (heaviest first) whose
// return keeps the partition feasible. ctx is polled per swept vertex, and
// the "greedy-sweep" and "redundancy-pass" phases open spans.
func TreeBandwidthGreedy(ctx context.Context, t *graph.Tree, k float64) (*CutResult, int64, error) {
	if !(k > 0) || math.IsNaN(k) || math.IsInf(k, 0) {
		return nil, 0, fmt.Errorf("bound %v: %w", k, ErrBadInput)
	}
	if t.MaxNodeWeight() > k {
		return nil, 0, fmt.Errorf("max vertex weight %v > K=%v: %w", t.MaxNodeWeight(), k, ErrInfeasible)
	}
	var iters int64
	n := t.Len()
	order, parent, _ := rootOrder(t)
	adj := t.Adjacency()
	res := make([]float64, n)
	copy(res, t.NodeW)
	cutSet := make(map[int]bool)
	type cand struct {
		res  float64
		edge int
	}
	sweep := obs.Phase(ctx, "greedy-sweep")
	for i := n - 1; i >= 0; i-- {
		if iters++; iters&(pollEvery-1) == 0 {
			select {
			case <-ctx.Done():
				sweep.End()
				return nil, iters, ctx.Err()
			default:
			}
		}
		v := order[i]
		var children []cand
		total := t.NodeW[v]
		for _, a := range adj[v] {
			if a.To == parent[v] {
				continue
			}
			children = append(children, cand{res: res[a.To], edge: a.Edge})
			total += res[a.To]
		}
		if total <= k {
			res[v] = total
			continue
		}
		// Prefer cutting edges that shed the most load per unit of cut
		// weight.
		sort.Slice(children, func(a, b int) bool {
			ra := children[a].res / math.Max(t.Edges[children[a].edge].W, 1e-12)
			rb := children[b].res / math.Max(t.Edges[children[b].edge].W, 1e-12)
			return ra > rb
		})
		for _, c := range children {
			if total <= k {
				break
			}
			total -= c.res
			cutSet[c.edge] = true
		}
		res[v] = total
	}
	sweep.End()
	// Redundancy elimination: try to restore the heaviest cut edges first.
	redo := obs.Phase(ctx, "redundancy-pass")
	defer redo.End()
	// Index order first, then a stable weight sort: tied edges are retried
	// in index order, never in map order.
	cut := make([]int, 0, len(cutSet))
	for e := range cutSet {
		cut = append(cut, e)
	}
	sort.Ints(cut)
	sort.SliceStable(cut, func(a, b int) bool { return t.Edges[cut[a]].W > t.Edges[cut[b]].W })
	for _, e := range cut {
		if iters++; iters&(pollEvery-1) == 0 {
			select {
			case <-ctx.Done():
				return nil, iters, ctx.Err()
			default:
			}
		}
		delete(cutSet, e)
		trial := make([]int, 0, len(cutSet))
		for x := range cutSet {
			trial = append(trial, x)
		}
		sort.Ints(trial)
		maxW, err := t.MaxComponentWeight(trial)
		if err != nil || maxW > k {
			cutSet[e] = true
		}
	}
	out := &CutResult{}
	for e := range cutSet {
		out.Cut = append(out.Cut, e)
	}
	sort.Ints(out.Cut)
	for _, e := range out.Cut {
		out.Weight += t.Edges[e].W
	}
	return out, iters, nil
}
