package oracle

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
)

// Reference solvers for the part-count objectives: partitions that remove
// exactly parts−1 tree edges, either maximizing the minimum component weight
// (max–min, Frederickson–Zhou arXiv 1711.00599) or minimizing the sum over
// components of the maximum node weight (sum-of-max, arXiv 2503.11526).
// Like the rest of this package they depend on internal/graph only.

// PartsResult holds an exhaustive optimum over every cut of exactly parts−1
// edges.
type PartsResult struct {
	// Value is the optimal objective value; Cut attains it.
	Value float64
	Cut   []int
}

// checkPartsArg checks a part count against the graph size.
func checkPartsArg(t *graph.Tree, parts int) error {
	if parts < 1 || parts > t.Len() {
		return fmt.Errorf("parts = %d of %d tasks: %w", parts, t.Len(), ErrInfeasible)
	}
	return nil
}

// componentStats labels the components induced by cutting exactly the edges
// in mask and returns (min component node-weight sum, sum of per-component
// max node weights). Union-find shared with no production code.
func componentStats(t *graph.Tree, mask int, parent []int, compW, compM []float64) (float64, float64) {
	n := t.Len()
	for v := 0; v < n; v++ {
		parent[v] = v
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
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
		compM[v] = math.Inf(-1)
	}
	for v := 0; v < n; v++ {
		r := find(v)
		compW[r] += t.NodeW[v]
		if t.NodeW[v] > compM[r] {
			compM[r] = t.NodeW[v]
		}
	}
	minW, sumM := math.Inf(1), 0.0
	for v := 0; v < n; v++ {
		if find(v) == v {
			if compW[v] < minW {
				minW = compW[v]
			}
			sumM += compM[v]
		}
	}
	return minW, sumM
}

// MaxMinBrute enumerates every cut of exactly parts−1 edges (≤ MaxBruteEdges
// edges total) and returns the one maximizing the minimum component weight.
func MaxMinBrute(t *graph.Tree, parts int) (*PartsResult, error) {
	if err := checkPartsArg(t, parts); err != nil {
		return nil, err
	}
	m := t.NumEdges()
	if m > MaxBruteEdges {
		return nil, fmt.Errorf("%d edges: %w", m, ErrTooLarge)
	}
	res := &PartsResult{Value: math.Inf(-1)}
	parent := make([]int, t.Len())
	compW := make([]float64, t.Len())
	compM := make([]float64, t.Len())
	for mask := 0; mask < 1<<m; mask++ {
		if bits.OnesCount(uint(mask)) != parts-1 {
			continue
		}
		minW, _ := componentStats(t, mask, parent, compW, compM)
		if minW > res.Value {
			res.Value, res.Cut = minW, cutOf(mask, m)
		}
	}
	return res, nil
}

// SumOfMaxBrute enumerates every cut of exactly parts−1 edges (≤
// MaxBruteEdges edges total) and returns the one minimizing the sum of
// per-component maximum node weights.
func SumOfMaxBrute(t *graph.Tree, parts int) (*PartsResult, error) {
	if err := checkPartsArg(t, parts); err != nil {
		return nil, err
	}
	m := t.NumEdges()
	if m > MaxBruteEdges {
		return nil, fmt.Errorf("%d edges: %w", m, ErrTooLarge)
	}
	res := &PartsResult{Value: math.Inf(1)}
	parent := make([]int, t.Len())
	compW := make([]float64, t.Len())
	compM := make([]float64, t.Len())
	for mask := 0; mask < 1<<m; mask++ {
		if bits.OnesCount(uint(mask)) != parts-1 {
			continue
		}
		_, sumM := componentStats(t, mask, parent, compW, compM)
		if sumM < res.Value {
			res.Value, res.Cut = sumM, cutOf(mask, m)
		}
	}
	return res, nil
}

// MaxPartsOver returns the maximum number of components a partition of the
// tree can produce with every component weighing ≥ b. It implements the
// Perl–Schach greedy independently of internal/core: children first, sever a
// subtree as soon as its residual weight reaches b. The greedy is
// exchange-optimal, so the count is exact; certificates use it as evidence
// that no max–min partition beats a claimed value. Runs in O(n).
func MaxPartsOver(t *graph.Tree, b float64) (int, error) {
	rt, _ := t.Root0(nil)
	// residual[v] is what v hands its parent: its residual weight, or 0
	// once severed.
	residual := make([]float64, t.Len())
	cnt := 0
	for i := len(rt.Order) - 1; i >= 0; i-- {
		v := rt.Order[i]
		var kids float64
		lo, hi := rt.Arcs(int(v))
		for a := lo; a < hi; a++ {
			if to := rt.To[a]; to != rt.Parent[v] {
				kids += residual[to]
			}
		}
		total := t.NodeW[v] + kids
		if total >= b {
			cnt++
			continue
		}
		residual[v] = total
	}
	return cnt, nil
}

// SumOfMaxDP computes the optimal sum-of-max value for an exactly-parts
// partition with a map-backed tree DP, independent of the Pareto-pruned
// production solver: state (j closed components, m = max weight of the open
// component) → minimum closed cost. The open component's maximum always
// equals some node weight, so there are O(n·parts) states per vertex.
func SumOfMaxDP(t *graph.Tree, parts int) (float64, error) {
	if err := checkPartsArg(t, parts); err != nil {
		return 0, err
	}
	rt, _ := t.Root0(nil)
	tab := make([]map[smKey]float64, t.Len())
	for i := len(rt.Order) - 1; i >= 0; i-- {
		v := rt.Order[i]
		cur := map[smKey]float64{{j: 0, m: t.NodeW[v]}: 0}
		lo, hi := rt.Arcs(int(v))
		for a := lo; a < hi; a++ {
			to := rt.To[a]
			if to == rt.Parent[v] {
				continue
			}
			child := tab[to]
			next := make(map[smKey]float64, len(cur))
			for pk, pc := range cur {
				for ck, cc := range child {
					if j := pk.j + ck.j; j <= parts-1 {
						k := smKey{j: j, m: math.Max(pk.m, ck.m)}
						if c := pc + cc; better(next, k, c) {
							next[k] = c
						}
					}
					if j := pk.j + ck.j + 1; j <= parts-1 {
						k := smKey{j: j, m: pk.m}
						if c := pc + cc + ck.m; better(next, k, c) {
							next[k] = c
						}
					}
				}
			}
			cur = next
			tab[to] = nil
		}
		tab[v] = cur
	}
	best := math.Inf(1)
	for k, c := range tab[0] {
		if k.j == parts-1 && c+k.m < best {
			best = c + k.m
		}
	}
	if math.IsInf(best, 1) {
		return 0, fmt.Errorf("sum-of-max DP: no %d-part state: %w", parts, ErrInfeasible)
	}
	return best, nil
}

// smKey is a SumOfMaxDP state: j closed components, open-component max m.
type smKey struct {
	j int
	m float64
}

// better reports whether cost c improves the table entry for k.
func better(m map[smKey]float64, k smKey, c float64) bool {
	old, ok := m[k]
	return !ok || c < old
}
