// Package graphtest holds graph fixtures for the tests of the packages that
// re-check a caller's graph where it enters the solver layer (engine.Solve,
// verify.CertifyResult and the facade functions reached without the
// engine).
package graphtest

import (
	"errors"
	"math"

	"repro/internal/graph"
)

// Malformed is a graph that no constructor or decoder would build: exactly
// one of Path and Tree is set.
type Malformed struct {
	Name string
	Path *graph.Path
	Tree *graph.Tree
}

// MalformedGraphs returns fresh malformed paths and trees, built as struct
// literals, one fault each.
func MalformedGraphs() []Malformed {
	edges := func(es ...graph.Edge) []graph.Edge { return es }
	return []Malformed{
		{Name: "empty path", Path: &graph.Path{}},
		{Name: "path EdgeW n-2", Path: &graph.Path{NodeW: []float64{1, 1, 1}, EdgeW: []float64{1}}},
		{Name: "path EdgeW n", Path: &graph.Path{NodeW: []float64{1, 1, 1}, EdgeW: []float64{1, 1, 1}}},
		{Name: "path NaN node", Path: &graph.Path{NodeW: []float64{1, math.NaN(), 1}, EdgeW: []float64{1, 1}}},
		{Name: "path -1 node", Path: &graph.Path{NodeW: []float64{1, -1, 1}, EdgeW: []float64{1, 1}}},
		{Name: "path +Inf node", Path: &graph.Path{NodeW: []float64{1, 1, math.Inf(1)}, EdgeW: []float64{1, 1}}},
		{Name: "path negative edge", Path: &graph.Path{NodeW: []float64{1, 1, 1}, EdgeW: []float64{1, -1}}},
		{Name: "empty tree", Tree: &graph.Tree{}},
		{Name: "tree missing edge", Tree: &graph.Tree{NodeW: []float64{1, 2}, Edges: nil}},
		{Name: "tree NaN node", Tree: &graph.Tree{NodeW: []float64{math.NaN(), 1}, Edges: edges(graph.Edge{U: 0, V: 1, W: 1})}},
		{Name: "tree negative edge", Tree: &graph.Tree{NodeW: []float64{1, 1}, Edges: edges(graph.Edge{U: 0, V: 1, W: -1})}},
		{Name: "tree edge out of range", Tree: &graph.Tree{NodeW: []float64{1, 1, 1}, Edges: edges(graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 1, V: 3, W: 1})}},
		{Name: "tree self-loop", Tree: &graph.Tree{NodeW: []float64{1, 1, 1}, Edges: edges(graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 2, V: 2, W: 1})}},
		{Name: "tree cycle", Tree: &graph.Tree{NodeW: []float64{1, 1, 1, 1}, Edges: edges(graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 1, V: 2, W: 1}, graph.Edge{U: 2, V: 0, W: 1})}},
	}
}

// IsGraphError reports whether err carries one of the graph package's
// validation sentinels.
func IsGraphError(err error) bool {
	for _, want := range []error{graph.ErrEmptyGraph, graph.ErrBadShape, graph.ErrBadWeight, graph.ErrNotTree} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}
