package engine

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
)

// TestInvalidGraphs sends every registered solver malformed graphs built as
// struct literals, which no decoder has checked. Each solve must refuse the
// graph with one of the graph package's sentinels and never panic. Path
// solvers refuse a tree request before looking at it, so they answer the
// tree columns with ErrBadRequest.
func TestInvalidGraphs(t *testing.T) {
	graphErrs := []error{graph.ErrEmptyGraph, graph.ErrBadShape, graph.ErrBadWeight, graph.ErrNotTree}
	edges := func(es ...graph.Edge) []graph.Edge { return es }
	columns := []struct {
		name string
		path *graph.Path
		tree *graph.Tree
	}{
		{name: "empty path", path: &graph.Path{}},
		{name: "path EdgeW n-2", path: &graph.Path{NodeW: []float64{1, 1, 1}, EdgeW: []float64{1}}},
		{name: "path EdgeW n", path: &graph.Path{NodeW: []float64{1, 1, 1}, EdgeW: []float64{1, 1, 1}}},
		{name: "path NaN node", path: &graph.Path{NodeW: []float64{1, math.NaN(), 1}, EdgeW: []float64{1, 1}}},
		{name: "path -1 node", path: &graph.Path{NodeW: []float64{1, -1, 1}, EdgeW: []float64{1, 1}}},
		{name: "path +Inf node", path: &graph.Path{NodeW: []float64{1, 1, math.Inf(1)}, EdgeW: []float64{1, 1}}},
		{name: "path negative edge", path: &graph.Path{NodeW: []float64{1, 1, 1}, EdgeW: []float64{1, -1}}},
		{name: "empty tree", tree: &graph.Tree{}},
		{name: "tree NaN node", tree: &graph.Tree{NodeW: []float64{math.NaN(), 1}, Edges: edges(graph.Edge{U: 0, V: 1, W: 1})}},
		{name: "tree negative edge", tree: &graph.Tree{NodeW: []float64{1, 1}, Edges: edges(graph.Edge{U: 0, V: 1, W: -1})}},
		{name: "tree edge out of range", tree: &graph.Tree{NodeW: []float64{1, 1, 1}, Edges: edges(graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 1, V: 3, W: 1})}},
		{name: "tree self-loop", tree: &graph.Tree{NodeW: []float64{1, 1, 1}, Edges: edges(graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 2, V: 2, W: 1})}},
		{name: "tree cycle", tree: &graph.Tree{NodeW: []float64{1, 1, 1, 1}, Edges: edges(graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 1, V: 2, W: 1}, graph.Edge{U: 2, V: 0, W: 1})}},
	}
	for _, name := range Names() {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range columns {
			t.Run(name+"/"+col.name, func(t *testing.T) {
				// K = 2 is a valid bound, part count and integral treecut K,
				// so only the graph can be at fault.
				_, err := Solve(context.Background(), Request{Solver: name, Path: col.path, Tree: col.tree, K: 2})
				if errors.Is(err, ErrSolverPanic) {
					t.Fatalf("solver panicked: %v", err)
				}
				if col.tree != nil && s.Kind() == KindPath {
					if !errors.Is(err, ErrBadRequest) {
						t.Errorf("err = %v, want ErrBadRequest", err)
					}
					return
				}
				for _, want := range graphErrs {
					if errors.Is(err, want) {
						return
					}
				}
				t.Errorf("err = %v, want a graph validation error", err)
			})
		}
	}
}
