package core

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/verify/oracle"
	"repro/internal/workload"
)

// ctx is the context the solver calls in this package's tests run under.
var ctx = context.Background()

// treeBrute is a thin shim over the shared exhaustive oracle
// (internal/verify/oracle.TreeBrute), kept so in-package tests fail fast on
// oracle errors instead of threading them through every call site.
func treeBrute(t *testing.T, tr *graph.Tree, k float64) *oracle.TreeResult {
	t.Helper()
	res, err := oracle.TreeBrute(tr, k)
	if err != nil {
		t.Fatalf("oracle.TreeBrute: %v", err)
	}
	return res
}

// randomPathForTest draws a modest random path guaranteed feasible for the
// returned bound.
func randomPathForTest(r *workload.RNG, maxN int) (*graph.Path, float64) {
	n := 2 + r.Intn(maxN-1)
	nodeW := make([]float64, n)
	for i := range nodeW {
		nodeW[i] = float64(1 + r.Intn(20))
	}
	edgeW := make([]float64, n-1)
	for i := range edgeW {
		edgeW[i] = float64(r.Intn(50))
	}
	k := 20 + float64(r.Intn(100))
	p := &graph.Path{NodeW: nodeW, EdgeW: edgeW}
	return p, k
}

// randomTreeForTest draws a modest random tree guaranteed feasible for the
// returned bound.
func randomTreeForTest(r *workload.RNG, maxN int) (*graph.Tree, float64) {
	n := 2 + r.Intn(maxN-1)
	tr := workload.RandomTree(r, n, workload.UniformWeights(1, 20), workload.UniformWeights(0, 50))
	k := 20 + float64(r.Intn(100))
	return tr, k
}
