// Package graph provides the weighted task-graph types used throughout the
// reproduction: linear task graphs (Path), tree task graphs (Tree), and
// general task graphs (Graph) for the application substrates.
//
// Conventions, following the paper (Ray & Jiang, ICDCS 1994, §1):
//
//   - A vertex weight w(t_i) is the processing requirement of task t_i.
//   - An edge weight w(m_i) is the communication volume between two tasks.
//   - All weights are non-negative float64 values.
//   - A cut is a sorted slice of edge indices; removing the cut edges splits
//     the graph into connected components, one per processor.
//
// Where a graph is checked: the constructors (NewPath, NewTree, ...) and the
// decoders (text, JSON, PGB1) validate what they build. A graph's fields
// stay exported and writable after that, so an ordinary graph carries no
// validity mark; instead the solver layer re-checks a caller's graph where
// it enters: engine.Solve (once per request, before any solver runs),
// verify.CertifyResult, and the two internal/core functions reached without
// the engine, BandwidthInstrumented and TradeoffCurve. Nothing below them
// re-checks: the solvers in internal/core and internal/treecut and the
// certificate oracles take a valid graph as their precondition.
//
// A frozen graph is the one exception. Freeze marks a graph that was just
// built and checked as shared and read-only; only a Store (the serving
// layer's graph store) freezes one, and nothing writes to it afterwards.
// It remembers that it is valid, so those entry checks return at once, and
// a frozen tree builds its rooted view at vertex 0 once, for every solver
// and oracle that walks it (Tree.Root0). The same view labels the
// components of T − cut for every cut evaluated on a frozen tree (component
// weights, components, Contract, MaxComponentWeight), in one walk with no
// union-find. Clone gives a writable, unfrozen copy, which is checked again
// wherever it enters.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Sentinel errors returned by constructors and validators.
var (
	// ErrEmptyGraph is returned when a graph has no vertices.
	ErrEmptyGraph = errors.New("graph: empty graph")
	// ErrBadWeight is returned when a weight is negative, NaN, or infinite.
	ErrBadWeight = errors.New("graph: weight must be finite and non-negative")
	// ErrBadShape is returned when slice lengths or edge endpoints are
	// inconsistent with the declared graph shape.
	ErrBadShape = errors.New("graph: inconsistent shape")
	// ErrNotTree is returned when an edge list does not form a tree.
	ErrNotTree = errors.New("graph: edge list is not a spanning tree")
	// ErrBadCut is returned when a cut references edges out of range or
	// contains duplicates.
	ErrBadCut = errors.New("graph: invalid cut")
)

// Edge is an undirected weighted edge between vertices U and V.
type Edge struct {
	U, V int
	W    float64
}

// validWeight reports whether w is usable as a task or message weight.
func validWeight(w float64) bool {
	return w >= 0 && !math.IsNaN(w) && !math.IsInf(w, 0)
}

// checkWeights validates every weight in ws, naming the slice in errors.
// A decoder passes a Hasher and the weights' little-endian bytes: ws is
// then filled from src, checked and folded into h, count first, in one
// pass (Hasher.FillWeights).
func checkWeights(h *Hasher, name string, ws []float64, src []byte) error {
	var bad int
	if h != nil {
		h.Word(uint64(len(ws)))
		bad = h.FillWeights(ws, src)
	} else {
		bad = -1
		for i, w := range ws {
			// Finite and non-negative; NaN fails both compares.
			if !(w >= 0 && w <= math.MaxFloat64) {
				bad = i
				break
			}
		}
	}
	if bad >= 0 {
		return fmt.Errorf("%s[%d] = %v: %w", name, bad, ws[bad], ErrBadWeight)
	}
	return nil
}

// checkCut validates that cut is a strictly increasing slice of edge indices
// in [0, numEdges).
func checkCut(cut []int, numEdges int) error {
	for i, e := range cut {
		if e < 0 || e >= numEdges {
			return fmt.Errorf("cut[%d] = %d out of range [0,%d): %w", i, e, numEdges, ErrBadCut)
		}
		if i > 0 && cut[i-1] >= e {
			return fmt.Errorf("cut not strictly increasing at index %d: %w", i, ErrBadCut)
		}
	}
	return nil
}

// NormalizeCut returns a sorted, de-duplicated copy of cut. It does not
// validate ranges; pair it with the owning graph's validation when needed.
func NormalizeCut(cut []int) []int {
	if len(cut) == 0 {
		return nil
	}
	out := slices.Clone(cut)
	slices.Sort(out)
	return slices.Compact(out)
}

// SumWeights returns the sum of ws.
func SumWeights(ws []float64) float64 {
	var s float64
	for _, w := range ws {
		s += w
	}
	return s
}

// MaxWeight returns the maximum of ws, or 0 for an empty slice.
func MaxWeight(ws []float64) float64 {
	var m float64
	for _, w := range ws {
		if w > m {
			m = w
		}
	}
	return m
}

// unionFind is a standard disjoint-set structure used by tree validation and
// by component labelling on unfrozen trees: parent[x] is x's parent, or
// −size for a root.
type unionFind []int32

func newUnionFind(n int) unionFind {
	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = -1
	}
	return uf
}

func (uf unionFind) find(x int) int {
	for uf[x] >= 0 {
		if p := uf[x]; uf[p] >= 0 {
			uf[x] = uf[p]
		}
		x = int(uf[x])
	}
	return x
}

// union merges the sets of x and y, by size, and reports whether they were
// distinct.
func (uf unionFind) union(x, y int) bool {
	rx, ry := uf.find(x), uf.find(y)
	if rx == ry {
		return false
	}
	if uf[rx] > uf[ry] {
		rx, ry = ry, rx
	}
	uf[rx] += uf[ry]
	uf[ry] = int32(rx)
	return true
}
