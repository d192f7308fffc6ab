package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
)

// This file implements max–min partitioning, the dual of the paper's min–max
// criteria: remove exactly parts−1 edges so that every one of the parts
// components is as heavy as possible — maximize the minimum component weight.
// It is the objective of Frederickson and Zhou's optimal parametric search
// for path and tree partitioning (arXiv 1711.00599), the direct successor to
// this paper's bottleneck criteria.
//
// Both solvers run one parametric search over a threshold B (maxMinSearch):
//
//   - g(B) = the maximum number of components of weight ≥ B any partition can
//     produce. On a path the left-to-right first-fit greedy realizes g; on a
//     tree the Perl–Schach postorder greedy (sever a subtree as soon as its
//     residual weight reaches B) does. Both are exchange-optimal.
//   - A partition into exactly `parts` components each ≥ B exists iff
//     g(B) ≥ parts: keeping only the first parts−1 greedy cuts merges the
//     surplus components into the last one without dropping below B.
//   - g is non-increasing in B, so the optimum is the largest feasible B.
//     Instead of Frederickson–Zhou's sorted-matrix selection we bisect on the
//     value axis, but every feasible probe tightens the lower end to the
//     *achieved* minimum component weight (a genuine partition value, not the
//     probe midpoint). The loop ends when no float64 remains strictly between
//     the best achieved value and the lightest refuted threshold, so the
//     result is exact up to floating-point summation order, in at most
//     ~64 + mantissa probes in practice.
//
// The path probe walks all n tasks. The tree probe walks only the severable
// top of the tree. W[v], v's subtree weight with nothing severed, never
// decreases toward the root, and every probe after the first two has a
// threshold above lo, the best value achieved so far. A vertex with
// W[v] < lo is therefore never severed again and its residual is W[v]. Each
// feasible probe that raises lo drops such vertices from the active list,
// walking only the previous list and folding each dropped vertex's W into
// its parent's base weight. A probe costs O(|active|), and the active list
// shrinks toward the few heavy vertices near the root as lo approaches the
// optimum. The fold adds a parent's children in a different order than a
// full walk would, so only the float summation order changes.
//
// Unlike the rest of this package, K in the engine request carries `parts`
// (the target component count) for these solvers, not a weight bound; the
// partition's K field echoes float64(parts).

// startParts is the prologue the part-count solvers share: it normalizes
// ctx, starts the ticker and checks parts against the task weights nodeW.
// A non-nil partition or error is the answer: parts == 1 is the uncut
// graph, whose one component sums nodeW in index order, as CutSummary and
// ComponentWeights do.
func startParts(ctx context.Context, parts int, nodeW []float64) (context.Context, *ticker, *Partition, error) {
	ctx, err := enter(ctx)
	tk := newTicker(ctx)
	switch {
	case err != nil:
	case parts < 1:
		err = fmt.Errorf("parts = %d: %w", parts, ErrBadBound)
	case parts > len(nodeW):
		err = fmt.Errorf("parts %d > %d tasks: %w", parts, len(nodeW), ErrInfeasible)
	case parts == 1:
		return ctx, tk, &Partition{Cut: []int{}, ComponentWeights: []float64{graph.SumWeights(nodeW)}, K: 1}, nil
	}
	return ctx, tk, nil, err
}

// maxMinSearch is the parametric search over B that both solvers share.
// probe(b) runs the greedy at threshold b and, when g(b) ≥ parts, returns
// true with the minimum component weight of the exactly-parts partition it
// leaves behind. The first probe, at the average total/parts, bounds the
// optimum from above: when it is feasible the partition it left is
// perfectly balanced and optimal, and the search reports balanced without
// calling keep. Otherwise every later feasible probe calls keep(lo) with the
// raised lower end, so the caller can save that partition (and, on a tree,
// drop the vertices lo rules out). It returns the optimum and the number of
// probes.
func maxMinSearch(total float64, parts, n int, probe func(b float64) (bool, float64, error), keep func(lo float64)) (value float64, probes int, balanced bool, err error) {
	// No partition's minimum exceeds the average: start at total/parts.
	hi := total / float64(parts)
	probes = 1
	if ok, _, err := probe(hi); err != nil || ok {
		return hi, probes, ok, err
	}
	// B = 0 closes a component at every task: always feasible for parts ≤ n.
	probes++
	ok, lo, err := probe(0)
	if err != nil {
		return 0, probes, false, err
	}
	if !ok {
		return 0, probes, false, fmt.Errorf("parts %d > %d tasks: %w", parts, n, ErrInfeasible)
	}
	keep(lo)
	for {
		mid := lo + (hi-lo)/2
		if !(mid > lo && mid < hi) {
			return lo, probes, false, nil
		}
		probes++
		ok, v, err := probe(mid)
		if err != nil {
			return 0, probes, false, err
		}
		if ok {
			// Feasibility at mid alone justifies lo = mid; the achieved value
			// usually jumps further, but float summation noise can land it a
			// hair below mid, so take the max to guarantee progress.
			lo = math.Max(v, mid)
			keep(lo)
		} else {
			hi = mid
		}
	}
}

// MaxMinPath partitions a linear task graph into exactly parts contiguous
// components maximizing the minimum component weight.
func MaxMinPath(ctx context.Context, p *graph.Path, parts int) (*PathPartition, int64, error) {
	ctx, tk, whole, err := startParts(ctx, parts, p.NodeW)
	if whole != nil || err != nil {
		return whole, tk.n, err
	}
	n := p.Len()
	total := p.TotalNodeWeight()
	cutBuf := make([]int, 0, parts-1)
	bestCut := make([]int, 0, parts-1)

	// probe runs the first-fit greedy at threshold b. When feasible it leaves
	// the first parts−1 cut positions in cutBuf and returns the minimum
	// component weight of the induced exactly-parts partition.
	probe := func(b float64) (bool, float64, error) {
		cutBuf = cutBuf[:0]
		var load, sumClosed float64
		minClosed := math.Inf(1)
		cnt := 0
		for i, w := range p.NodeW {
			if err := tk.tick(); err != nil {
				return false, 0, err
			}
			load += w
			if load >= b {
				cnt++
				if len(cutBuf) < parts-1 && i < n-1 {
					cutBuf = append(cutBuf, i)
					sumClosed += load
					if load < minClosed {
						minClosed = load
					}
				}
				load = 0
			}
		}
		if cnt < parts {
			return false, 0, nil
		}
		// The remainder (everything past the first parts−1 cuts) forms the
		// last component; cnt ≥ parts guarantees it still weighs ≥ b.
		return true, math.Min(minClosed, total-sumClosed), nil
	}

	sp := obs.Phase(ctx, "parametric-search")
	defer sp.End()
	value, probes, balanced, err := maxMinSearch(total, parts, n, probe, func(float64) {
		bestCut = append(bestCut[:0], cutBuf...)
	})
	if err != nil {
		return nil, tk.n, err
	}
	obs.SetAttr(sp, "probes", probes)
	if balanced {
		bestCut = cutBuf
	} else {
		obs.SetAttr(sp, "value", value)
	}
	pp, err := newPathPartition(p, append([]int(nil), bestCut...), float64(parts))
	return pp, tk.n, err
}

// MaxMinTree partitions a tree task graph into exactly parts components
// maximizing the minimum component weight.
func MaxMinTree(ctx context.Context, t *graph.Tree, parts int) (*TreePartition, int64, error) {
	ctx, tk, whole, err := startParts(ctx, parts, t.NodeW)
	if whole != nil || err != nil {
		return whole, tk.n, err
	}
	n := t.Len()
	total := t.TotalNodeWeight()

	sc := getScratch()
	defer sc.release()
	_, order, parent, parentEdge := sc.rootTree(ctx, t)

	// subW is W from the header, summed in the order a full probe sums
	// residuals; base[v] is NodeW[v] plus the W of v's dropped children.
	sc.res = grow(sc.res, n)
	sc.f64a = grow(sc.f64a, n)
	sc.f64b = grow(sc.f64b, n)
	sc.deque32 = grow(sc.deque32, n)
	res, subW, base := sc.res, sc.f64a, sc.f64b
	copy(subW, t.NodeW)
	copy(base, t.NodeW)
	active := sc.deque32[:0]
	for i := n - 1; i >= 1; i-- {
		v := order[i]
		subW[parent[v]] += subW[v]
		active = append(active, int32(v))
	}
	active = append(active, 0)
	cutBuf := make([]int, 0, parts-1)
	bestCut := make([]int, 0, parts-1)

	// keep saves the probe's cut and drops the vertices with W < lo from
	// the active list (reverse BFS order), folding each into its parent's
	// base while the parent stays. The root stays last: lo never exceeds
	// total/2 while W[root] is the total.
	keep := func(lo float64) {
		bestCut = append(bestCut[:0], cutBuf...)
		kept := active[:0]
		for _, v := range active {
			if subW[v] >= lo {
				kept = append(kept, v)
			} else if p := parent[v]; subW[p] >= lo {
				base[p] += subW[v]
			}
		}
		active = kept
	}

	// probe runs the Perl–Schach greedy at threshold b: walking the active
	// list (a post-order of the active vertices), sever a vertex from its
	// parent as soon as its residual subtree weight reaches b. Severing the
	// first parts−1 chunks and leaving the rest connected yields an
	// exactly-parts partition whose minimum weight the probe returns when
	// g(b) ≥ parts.
	walked := 0
	probe := func(b float64) (bool, float64, error) {
		for _, v := range active {
			res[v] = base[v]
		}
		cutBuf = cutBuf[:0]
		var sumSevered float64
		minSevered := math.Inf(1)
		cnt := 0
		top := active[:len(active)-1]
		walked += len(top)
		for _, v32 := range top {
			if err := tk.tick(); err != nil {
				return false, 0, err
			}
			v := int(v32)
			if res[v] >= b {
				// Sever and reset even past the first parts−1 chunks — the
				// count must match the full greedy — but only the recorded
				// cuts become the partition; later chunks merge into the
				// remainder component.
				cnt++
				if len(cutBuf) < parts-1 {
					cutBuf = append(cutBuf, parentEdge[v])
					sumSevered += res[v]
					if res[v] < minSevered {
						minSevered = res[v]
					}
				}
				continue
			}
			res[parent[v]] += res[v]
		}
		if res[0] >= b {
			cnt++
		}
		if cnt < parts {
			return false, 0, nil
		}
		// Everything outside the first parts−1 severed chunks stays one
		// connected component; cnt ≥ parts keeps it ≥ b.
		return true, math.Min(minSevered, total-sumSevered), nil
	}

	sweep := obs.Phase(ctx, "parametric-search")
	defer sweep.End()
	value, probes, balanced, err := maxMinSearch(total, parts, n, probe, keep)
	if err != nil {
		return nil, tk.n, err
	}
	obs.SetAttr(sweep, "probes", probes)
	obs.SetAttr(sweep, "walked", walked)
	if balanced {
		bestCut = cutBuf
	} else {
		obs.SetAttr(sweep, "value", value)
	}
	tp, err := newTreePartition(t, graph.NormalizeCut(append([]int(nil), bestCut...)), float64(parts))
	return tp, tk.n, err
}
