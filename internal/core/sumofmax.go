package core

import (
	"context"
	"fmt"
	"math"

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
// A state (j, m, cost) can only beat (j, m', cost') when m ≤ m' and
// cost ≤ cost', so each j-row is kept as its Pareto front: m ascending,
// cost strictly descending.
//
// Merging a child table C into v's accumulated table P never forms the
// |P|×|C| cross product. For each pair of rows (P_j₁, C_j₂):
//
//   - Keeping the edge joins the open components: row j₁+j₂ gains the
//     (max, +) merge of the two fronts. The cheapest state with maximum x
//     pairs the last state of each front with m ≤ x, so one two-pointer walk
//     over m yields it in O(|P_j₁| + |C_j₂|).
//   - Cutting the edge closes the child's open component: row j₁+j₂+1 gains
//     P_j₁ shifted by the cheapest close of C_j₂, min over C_j₂ of cost + m,
//     in O(|P_j₁|).
//
// Each result row is the linear Pareto union of its candidate fronts, so a
// merge costs O(Σ over row pairs of |P_j₁| + |C_j₂| + |row|), and rows hold
// at most one state per distinct task weight in the subtree. With rows
// capped at parts, the classic tree-knapsack bound limits the row pairs to
// O(n·parts) over the whole tree. Every table lives in one pooled slab, one
// level per merge step, so backtracking can replay each merge. The answer
// closes the root's open component at j = parts−1.
//
// As in maxmin.go, K in the engine request carries `parts` for this solver,
// and the partition's K field echoes float64(parts).

// smState is one DP state: j closed components costing cost, plus the open
// component with running maximum m. prev/child/cut record how the state was
// formed, for cut reconstruction: prev indexes the accumulated level before
// this child merge, child indexes the child's final level, and cut says the
// child edge was removed. The initial (pre-children) state has prev = −1.
type smState struct {
	j     int32
	cut   bool
	m     float64
	cost  float64
	prev  int32
	child int32
}

// pushFront appends s to a front under construction from states arriving in
// non-decreasing m: s is dropped unless it is strictly cheaper than the last
// kept state, and replaces that state when their m are equal.
func pushFront(front []smState, s smState) []smState {
	if k := len(front) - 1; k >= 0 {
		if s.cost >= front[k].cost {
			return front
		}
		if s.m == front[k].m {
			front[k] = s
			return front
		}
	}
	return append(front, s)
}

// uniteFronts appends to dst the Pareto front of the union of fronts a and
// b; on equal (m, cost) the state from a is kept.
func uniteFronts(dst, a, b []smState) []smState {
	i, k := 0, 0
	for i < len(a) || k < len(b) {
		if k == len(b) || (i < len(a) && a[i].m <= b[k].m) {
			dst = pushFront(dst, a[i])
			i++
		} else {
			dst = pushFront(dst, b[k])
			k++
		}
	}
	return dst
}

// rowStarts fills starts[j] with the index of row j's first state in tab
// (sorted by j) for j = 0..last+1, where last is tab's largest j, and returns
// the filled prefix.
func rowStarts(starts []int32, tab []smState) []int32 {
	starts = starts[:0]
	for i, s := range tab {
		for int32(len(starts)) <= s.j {
			starts = append(starts, int32(i))
		}
	}
	return append(starts, int32(len(tab)))
}

// smDP is the sum-of-max DP's pooled memory. Level L of the slab is
// tab[level[L]:level[L+1]]; a vertex's levels are consecutive, its init
// state then one per child merge in arc order, ending at fin[v]. sel[v] is
// the state of v's final level the optimum uses. rowP, rowC, closeC, cur,
// tmp and f are one merge's buffers: the row bounds of P and C, C's
// cheapest close per row, and the fronts of the row under construction.
type smDP struct {
	tab         []smState
	level       []int32
	fin, sel    []int32
	rowP, rowC  []int32
	closeC      []int32
	cur, tmp, f []smState
	maxJ        int32
	frontMax    int // largest row built
}

// merge appends a level to the slab: the last level, v's accumulated table
// P, merged with the child table C at level child.
func (sm *smDP) merge(tk *ticker, child int32) error {
	l := len(sm.level) - 2
	p := sm.tab[sm.level[l]:sm.level[l+1]]
	c := sm.tab[sm.level[child]:sm.level[child+1]]
	sm.rowP = rowStarts(sm.rowP, p)
	sm.rowC = rowStarts(sm.rowC, c)
	jp, jc := int32(len(sm.rowP)-2), int32(len(sm.rowC)-2)
	// closeC[j₂] is the state of C_j₂ whose open component is cheapest to
	// close (first minimum of cost + m), or −1 when the row is empty.
	sm.closeC = sm.closeC[:0]
	for j2 := int32(0); j2 <= jc; j2++ {
		best, bestVal := int32(-1), math.Inf(1)
		for ci := sm.rowC[j2]; ci < sm.rowC[j2+1]; ci++ {
			if v := c[ci].cost + c[ci].m; v < bestVal {
				best, bestVal = ci, v
			}
		}
		sm.closeC = append(sm.closeC, best)
	}
	// Appending to tab may move it; p and c keep reading the old array,
	// whose states up to here never change.
	for j := int32(0); j <= min(sm.maxJ, jp+jc+1); j++ {
		sm.cur = sm.cur[:0]
		for j1 := max(0, j-jc-1); j1 <= min(jp, j); j1++ {
			pRow := p[sm.rowP[j1]:sm.rowP[j1+1]]
			// Keep the edge: row j₁ of P with row j−j₁ of C.
			if j2 := j - j1; j2 <= jc {
				if err := sm.keep(tk, pRow, sm.rowP[j1], c, sm.rowC[j2], sm.rowC[j2+1]); err != nil {
					return err
				}
			}
			// Cut the edge: the child's open component closes and pays its
			// maximum.
			if j2 := j - j1 - 1; j2 >= 0 && j2 <= jc && sm.closeC[j2] >= 0 {
				if err := sm.cut(tk, pRow, sm.rowP[j1], c, sm.closeC[j2]); err != nil {
					return err
				}
			}
		}
		sm.frontMax = max(sm.frontMax, len(sm.cur))
		for _, s := range sm.cur {
			s.j = j
			sm.tab = append(sm.tab, s)
		}
	}
	sm.level = append(sm.level, int32(len(sm.tab)))
	return nil
}

// keep unites into sm.cur the (max, +) merge of the front pRow (whose first
// state sits at index pOff of P) with the front c[cLo:cHi]: for each m in
// either front, the last state of each with m ≤ that value.
func (sm *smDP) keep(tk *ticker, pRow []smState, pOff int32, c []smState, cLo, cHi int32) error {
	f := sm.f[:0]
	i, k := 0, cLo
	for i < len(pRow) || k < cHi {
		if err := tk.tick(); err != nil {
			return err
		}
		var x float64
		if k == cHi || (i < len(pRow) && pRow[i].m <= c[k].m) {
			x = pRow[i].m
		} else {
			x = c[k].m
		}
		for i < len(pRow) && pRow[i].m <= x {
			i++
		}
		for k < cHi && c[k].m <= x {
			k++
		}
		if i > 0 && k > cLo {
			ps, cs := &pRow[i-1], &c[k-1]
			f = pushFront(f, smState{
				m: x, cost: ps.cost + cs.cost,
				prev: pOff + int32(i-1), child: k - 1,
			})
		}
	}
	sm.f = f
	sm.unite()
	return nil
}

// cut unites into sm.cur the front pRow shifted by closing C's state ci.
func (sm *smDP) cut(tk *ticker, pRow []smState, pOff int32, c []smState, ci int32) error {
	f := sm.f[:0]
	cs := &c[ci]
	for i := range pRow {
		if err := tk.tick(); err != nil {
			return err
		}
		ps := &pRow[i]
		f = pushFront(f, smState{
			cut: true, m: ps.m, cost: ps.cost + cs.cost + cs.m,
			prev: pOff + int32(i), child: ci,
		})
	}
	sm.f = f
	sm.unite()
	return nil
}

// unite replaces sm.cur with the Pareto union of sm.cur and sm.f.
func (sm *smDP) unite() {
	if len(sm.cur) == 0 {
		sm.cur, sm.f = sm.f, sm.cur
		return
	}
	sm.tmp = uniteFronts(sm.tmp[:0], sm.cur, sm.f)
	sm.cur, sm.tmp = sm.tmp, sm.cur
}

// SumOfMaxTree partitions a tree task graph into exactly parts components
// minimizing the sum over components of the maximum task weight.
func SumOfMaxTree(ctx context.Context, t *graph.Tree, parts int) (*TreePartition, int64, error) {
	ctx, tk, whole, err := startParts(ctx, parts, t.NodeW)
	if whole != nil || err != nil {
		return whole, tk.n, err
	}
	n := t.Len()

	sc := getScratch()
	defer sc.release()
	csr, order, parent, _ := sc.rootTree(ctx, t)

	sm := &sc.sm
	sm.tab, sm.level = sm.tab[:0], append(sm.level[:0], 0)
	sm.fin, sm.sel = grow(sm.fin, n), grow(sm.sel, n)
	sm.maxJ, sm.frontMax = int32(parts-1), 0

	dp := obs.Phase(ctx, "summax-dp")
	// Reverse BFS order is a post-order: children are final before parents.
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		sm.tab = append(sm.tab, smState{j: 0, m: t.NodeW[v], cost: 0, prev: -1, child: -1})
		sm.level = append(sm.level, int32(len(sm.tab)))
		lo, hi := csr.Arcs(v)
		for a := lo; a < hi; a++ {
			if c := int(csr.To[a]); c != parent[v] {
				if err := sm.merge(tk, sm.fin[c]); err != nil {
					dp.End()
					return nil, tk.n, err
				}
			}
		}
		sm.fin[v] = int32(len(sm.level) - 2)
	}
	obs.SetAttr(dp, "states", len(sm.tab))
	obs.SetAttr(dp, "front_max", sm.frontMax)
	dp.End()

	// Root answer: exactly parts−1 closed components plus the root's open
	// one, which closes now and pays its maximum.
	tab, level, fin, sel := sm.tab, sm.level, sm.fin, sm.sel
	rootTab := tab[level[fin[0]]:level[fin[0]+1]]
	bestIdx, bestVal := -1, math.Inf(1)
	for i, s := range rootTab {
		if s.j == sm.maxJ && s.cost+s.m < bestVal {
			bestIdx, bestVal = i, s.cost+s.m
		}
	}
	if bestIdx < 0 {
		// Unreachable: any parts−1 edges of the tree can be cut.
		return nil, tk.n, fmt.Errorf("sum-of-max DP found no %d-component state: %w", parts, ErrInfeasible)
	}

	// Backtrack parents before children (BFS order): replaying v's merges
	// from the last child to the first fixes each child's sel.
	bp := obs.Phase(ctx, "build-partition")
	cut := make([]int, 0, parts-1)
	sel[0] = int32(bestIdx)
	for _, v := range order {
		l, si := fin[v], sel[v]
		lo, hi := csr.Arcs(v)
		for a := hi - 1; a >= lo; a-- {
			c := int(csr.To[a])
			if c == parent[v] {
				continue
			}
			s := tab[level[l]+si]
			if s.cut {
				cut = append(cut, int(csr.EIdx[a]))
			}
			sel[c] = s.child
			si, l = s.prev, l-1
		}
	}
	obs.SetAttr(bp, "components", parts)
	bp.End()
	tp, err := newTreePartition(t, graph.NormalizeCut(cut), float64(parts))
	return tp, tk.n, err
}
