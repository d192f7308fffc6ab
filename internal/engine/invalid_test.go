package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph/graphtest"
)

// TestInvalidGraphs sends every registered solver malformed graphs built as
// struct literals, which no decoder has checked. Each solve must refuse the
// graph with one of the graph package's sentinels and never panic. Path
// solvers refuse a tree request before looking at it, so they answer the
// tree columns with ErrBadRequest.
func TestInvalidGraphs(t *testing.T) {
	for _, name := range Names() {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range graphtest.MalformedGraphs() {
			t.Run(name+"/"+col.Name, func(t *testing.T) {
				// K = 2 is a valid bound, part count and integral treecut K,
				// so only the graph can be at fault.
				_, err := Solve(context.Background(), Request{Solver: name, Path: col.Path, Tree: col.Tree, K: 2})
				if errors.Is(err, ErrSolverPanic) {
					t.Fatalf("solver panicked: %v", err)
				}
				if col.Tree != nil && s.Kind() == KindPath {
					if !errors.Is(err, ErrBadRequest) {
						t.Errorf("err = %v, want ErrBadRequest", err)
					}
					return
				}
				if !graphtest.IsGraphError(err) {
					t.Errorf("err = %v, want a graph validation error", err)
				}
			})
		}
	}
}
