// Package fm implements Fiduccia–Mattheyses-style partition refinement for
// general task graphs — the heuristic state of the art the paper positions
// itself against in §3: "Due to the NP-Completeness of the general problem,
// most current partitioning strategies are based on heuristic solutions
// [6, 3, 2]" (reference [6] is Fiduccia & Mattheyses 1982). The paper's
// point is that for linear/tree (or linearizable) systems its exact
// algorithms replace these heuristics; the experiments use this package as
// that contrast.
//
// Bipartition runs pass-based refinement: starting from a balanced greedy
// assignment, each pass tentatively moves every vertex once in best-gain
// order (respecting the balance bound), then rewinds to the best prefix of
// moves; passes repeat until one fails to improve. The classical
// implementation achieves O(pins) per pass with integer-gain bucket lists;
// task-graph weights here are real-valued, so a lazy max-heap is used
// instead (O(m log n) per pass), which changes the constant, not the
// behaviour.
//
// Partition builds k-way partitions by recursive bisection.
package fm

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/workload"
)

// Sentinel errors.
var (
	// ErrBalance is returned when no balanced assignment exists (a vertex
	// exceeds the side bound, or total weight exceeds twice the bound).
	ErrBalance = errors.New("fm: balance bound unsatisfiable")
	// ErrBadInput is returned for malformed arguments.
	ErrBadInput = errors.New("fm: bad input")
)

// Result is a two-way partition.
type Result struct {
	// Side[v] ∈ {0, 1}.
	Side []int
	// CutWeight is the total weight of edges crossing sides.
	CutWeight float64
	// SideWeights are the vertex-weight totals of sides 0 and 1.
	SideWeights [2]float64
	// Passes is the number of refinement passes executed.
	Passes int
}

type gainItem struct {
	v     int
	gain  float64
	stamp int64
}

type gainHeap []gainItem

func (h gainHeap) Len() int           { return len(h) }
func (h gainHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h gainHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x any)        { *h = append(*h, x.(gainItem)) }
func (h *gainHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Bipartition partitions g into two sides, each of total vertex weight at
// most maxSide, heuristically minimizing the cut weight. It runs several
// refinement rounds from different deterministic starting assignments
// (derived from seed) and returns the best; runs are deterministic per
// seed. The bound is hard: refinement can only move a vertex while both
// sides stay within it, so a bound with no slack (e.g. exactly half the
// total weight) freezes refinement at the initial assignment — give the
// bound the same slack a real machine's load limit would have.
func Bipartition(g *graph.Graph, maxSide float64, seed uint64) (*Result, error) {
	return BipartitionCaps(g, [2]float64{maxSide, maxSide}, seed)
}

// BipartitionCaps is Bipartition with independent per-side capacities, the
// form recursive bisection needs when the two sides will host different
// numbers of final parts.
func BipartitionCaps(g *graph.Graph, caps [2]float64, seed uint64) (*Result, error) {
	const restarts = 4
	var best *Result
	for i := uint64(0); i < restarts; i++ {
		res, err := bipartitionOnce(g, caps, seed+i*0x9e3779b9)
		if err != nil {
			return nil, err
		}
		if best == nil || res.CutWeight < best.CutWeight {
			best = res
		}
	}
	return best, nil
}

func bipartitionOnce(g *graph.Graph, caps [2]float64, seed uint64) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	for s, c := range caps {
		if !(c > 0) || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("cap[%d] = %v: %w", s, c, ErrBadInput)
		}
	}
	n := g.Len()
	total := g.TotalNodeWeight()
	if total > caps[0]+caps[1] {
		return nil, fmt.Errorf("total weight %v > %v+%v: %w", total, caps[0], caps[1], ErrBalance)
	}
	maxCap := math.Max(caps[0], caps[1])
	for v, w := range g.NodeW {
		if w > maxCap {
			return nil, fmt.Errorf("vertex %d weight %v > bound %v: %w", v, w, maxCap, ErrBalance)
		}
	}
	merged := g.MergeParallel()
	adj := merged.Adjacency()

	// Initial assignment: each vertex in turn goes to the side with more
	// room left, or to the other side when it would overflow there. Vertices
	// come in random order; if that overflows a side, they come again
	// largest first, which with equal caps keeps the heavier side within
	// max(heaviest vertex, 2/3 of the total).
	side := make([]int, n)
	var sw [2]float64
	assign := func(order []int) {
		sw = [2]float64{}
		for _, v := range order {
			s := 0
			if caps[1]-sw[1] > caps[0]-sw[0] {
				s = 1
			}
			if sw[s]+merged.NodeW[v] > caps[s] {
				s = 1 - s
			}
			side[v] = s
			sw[s] += merged.NodeW[v]
		}
	}
	order := workload.NewRNG(seed).Perm(n)
	assign(order)
	if sw[0] > caps[0] || sw[1] > caps[1] {
		slices.SortStableFunc(order, func(a, b int) int {
			return cmp.Compare(merged.NodeW[b], merged.NodeW[a])
		})
		assign(order)
	}
	if sw[0] > caps[0] || sw[1] > caps[1] {
		return nil, fmt.Errorf("first-fit could not balance (sides %v, %v vs caps %v): %w",
			sw[0], sw[1], caps, ErrBalance)
	}

	// gain(v) = external − internal edge weight: the cut reduction if v
	// moves.
	gain := func(v int) float64 {
		var gn float64
		for _, a := range adj[v] {
			if side[a.To] == side[v] {
				gn -= merged.Edges[a.Edge].W
			} else {
				gn += merged.Edges[a.Edge].W
			}
		}
		return gn
	}
	cutWeight := func() float64 {
		var c float64
		for _, e := range merged.Edges {
			if side[e.U] != side[e.V] {
				c += e.W
			}
		}
		return c
	}

	res := &Result{Side: side, SideWeights: sw}
	stamps := make([]int64, n)
	var stampGen int64
	for {
		res.Passes++
		locked := make([]bool, n)
		h := &gainHeap{}
		for v := 0; v < n; v++ {
			stampGen++
			stamps[v] = stampGen
			heap.Push(h, gainItem{v: v, gain: gain(v), stamp: stampGen})
		}
		type move struct {
			v    int
			gain float64
		}
		var moves []move
		bestPrefix, bestDelta := 0, 0.0
		var delta float64
		for h.Len() > 0 {
			it := heap.Pop(h).(gainItem)
			if locked[it.v] || stamps[it.v] != it.stamp {
				continue
			}
			v := it.v
			target := 1 - side[v]
			if sw[target]+merged.NodeW[v] > caps[target] {
				// Cannot move now; re-queue once in case balance frees up.
				// Locking instead keeps passes linear; FM locks too.
				locked[v] = true
				continue
			}
			// Apply the move.
			g := gain(v) // recompute: heap entry may be stale
			sw[side[v]] -= merged.NodeW[v]
			side[v] = target
			sw[target] += merged.NodeW[v]
			locked[v] = true
			delta -= g
			moves = append(moves, move{v: v, gain: g})
			if delta < bestDelta {
				bestDelta = delta
				bestPrefix = len(moves)
			}
			// Neighbours' gains changed; push fresh entries.
			for _, a := range adj[v] {
				if !locked[a.To] {
					stampGen++
					stamps[a.To] = stampGen
					heap.Push(h, gainItem{v: a.To, gain: gain(a.To), stamp: stampGen})
				}
			}
		}
		// Rewind to the best prefix.
		for i := len(moves) - 1; i >= bestPrefix; i-- {
			v := moves[i].v
			sw[side[v]] -= merged.NodeW[v]
			side[v] = 1 - side[v]
			sw[side[v]] += merged.NodeW[v]
		}
		if bestDelta >= -1e-12 {
			break
		}
	}
	res.CutWeight = cutWeight()
	res.SideWeights = sw
	return res, nil
}

// Partition builds a k-way partition by recursive bisection: each recursive
// split receives a proportional share of the part budget. part[v] ∈ [0, k).
// maxPart bounds every final part's weight.
func Partition(g *graph.Graph, k int, maxPart float64, seed uint64) ([]int, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("k = %d: %w", k, ErrBadInput)
	}
	part := make([]int, g.Len())
	var rec func(vs []int, lo, hi int, seed uint64) error
	rec = func(vs []int, lo, hi int, seed uint64) error {
		if len(vs) == 0 {
			return nil
		}
		if hi-lo <= 1 {
			for _, v := range vs {
				part[v] = lo
			}
			return nil
		}
		sub, back := induce(g, vs)
		kl := (hi - lo + 1) / 2
		kr := (hi - lo) - kl
		// Per-side budgets proportional to the part counts each side will
		// host, with the final bound enforced at the leaves.
		caps := [2]float64{float64(kl) * maxPart, float64(kr) * maxPart}
		bp, err := BipartitionCaps(sub, caps, seed)
		if err != nil {
			return err
		}
		var left, right []int
		for i, s := range bp.Side {
			if s == 0 {
				left = append(left, back[i])
			} else {
				right = append(right, back[i])
			}
		}
		if err := rec(left, lo, lo+kl, seed*2+1); err != nil {
			return err
		}
		return rec(right, lo+kl, hi, seed*2+2)
	}
	vs := make([]int, g.Len())
	for i := range vs {
		vs[i] = i
	}
	if err := rec(vs, 0, k, seed); err != nil {
		return nil, err
	}
	// Validate the leaf bound.
	weights := make([]float64, k)
	for v, p := range part {
		weights[p] += g.NodeW[v]
	}
	for p, w := range weights {
		if w > maxPart+1e-9 {
			return nil, fmt.Errorf("part %d weight %v > %v: %w", p, w, maxPart, ErrBalance)
		}
	}
	return part, nil
}

// induce builds the subgraph on vs, returning it and the index-back map.
func induce(g *graph.Graph, vs []int) (*graph.Graph, []int) {
	idx := make(map[int]int, len(vs))
	back := make([]int, len(vs))
	nodeW := make([]float64, len(vs))
	for i, v := range vs {
		idx[v] = i
		back[i] = v
		nodeW[i] = g.NodeW[v]
	}
	var edges []graph.Edge
	for _, e := range g.Edges {
		u, okU := idx[e.U]
		v, okV := idx[e.V]
		if okU && okV {
			edges = append(edges, graph.Edge{U: u, V: v, W: e.W})
		}
	}
	return &graph.Graph{NodeW: nodeW, Edges: edges}, back
}

// CutWeight computes the weight of edges crossing parts for an arbitrary
// assignment.
func CutWeight(g *graph.Graph, part []int) (float64, error) {
	if len(part) != g.Len() {
		return 0, fmt.Errorf("assignment covers %d of %d vertices: %w", len(part), g.Len(), ErrBadInput)
	}
	var c float64
	for _, e := range g.Edges {
		if part[e.U] != part[e.V] {
			c += e.W
		}
	}
	return c, nil
}
