package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/verify/oracle"
	"repro/internal/workload"
)

// minWeight returns the smallest element of ws.
func minWeight(ws []float64) float64 {
	m := math.Inf(1)
	for _, w := range ws {
		if w < m {
			m = w
		}
	}
	return m
}

// feqTest compares floats with the same relative tolerance the verify
// package uses: summation-order noise only.
func feqTest(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= 1e-9*math.Max(scale, 1)
}

func TestMaxMinPathEdgeCases(t *testing.T) {
	tests := []struct {
		name    string
		nodeW   []float64
		parts   int
		want    float64 // optimal min component weight
		wantErr error
	}{
		{name: "k=1 whole path", nodeW: []float64{3, 1, 4, 1, 5}, parts: 1, want: 14},
		{name: "k=n singletons", nodeW: []float64{3, 1, 4, 1, 5}, parts: 5, want: 1},
		{name: "single node", nodeW: []float64{7}, parts: 1, want: 7},
		{name: "all equal halves", nodeW: []float64{2, 2, 2, 2}, parts: 2, want: 4},
		{name: "all equal thirds", nodeW: []float64{5, 5, 5}, parts: 3, want: 5},
		{name: "zero-weight nodes", nodeW: []float64{0, 6, 0, 6, 0}, parts: 2, want: 6},
		{name: "all zeros", nodeW: []float64{0, 0, 0}, parts: 2, want: 0},
		{name: "unbalanced optimum", nodeW: []float64{9, 1, 1, 1}, parts: 2, want: 3},
		{name: "k>n infeasible", nodeW: []float64{1, 2}, parts: 3, wantErr: ErrInfeasible},
		{name: "parts=0 bad bound", nodeW: []float64{1, 2}, parts: 0, wantErr: ErrBadBound},
		{name: "negative parts", nodeW: []float64{1}, parts: -2, wantErr: ErrBadBound},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := &graph.Path{NodeW: tt.nodeW, EdgeW: make([]float64, len(tt.nodeW)-1)}
			got, _, err := MaxMinPath(ctx, p, tt.parts)
			if tt.wantErr != nil {
				if !errors.Is(err, tt.wantErr) {
					t.Fatalf("error = %v, want %v", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("MaxMinPath: %v", err)
			}
			if got.NumComponents() != tt.parts {
				t.Errorf("NumComponents = %d (cut %v), want %d", got.NumComponents(), got.Cut, tt.parts)
			}
			if v := minWeight(got.ComponentWeights); !feqTest(v, tt.want) {
				t.Errorf("min component = %v (weights %v), want %v", v, got.ComponentWeights, tt.want)
			}
			if got.K != float64(tt.parts) {
				t.Errorf("K = %v, want %v", got.K, float64(tt.parts))
			}
		})
	}
}

func TestMaxMinTreeEdgeCases(t *testing.T) {
	star := func(nodeW []float64) *graph.Tree {
		edges := make([]graph.Edge, len(nodeW)-1)
		for i := range edges {
			edges[i] = graph.Edge{U: 0, V: i + 1, W: 1}
		}
		return &graph.Tree{NodeW: nodeW, Edges: edges}
	}
	chain := func(nodeW []float64) *graph.Tree {
		edges := make([]graph.Edge, len(nodeW)-1)
		for i := range edges {
			edges[i] = graph.Edge{U: i, V: i + 1, W: 1}
		}
		return &graph.Tree{NodeW: nodeW, Edges: edges}
	}
	tests := []struct {
		name    string
		tree    *graph.Tree
		parts   int
		want    float64
		wantErr error
	}{
		{name: "k=1 whole tree", tree: star([]float64{1, 2, 3, 4}), parts: 1, want: 10},
		{name: "k=n singletons", tree: star([]float64{1, 2, 3, 4}), parts: 4, want: 1},
		{name: "single node", tree: &graph.Tree{NodeW: []float64{5}}, parts: 1, want: 5},
		{name: "all equal chain", tree: chain([]float64{3, 3, 3, 3, 3, 3}), parts: 3, want: 6},
		{name: "zero-weight nodes", tree: chain([]float64{0, 4, 0, 4}), parts: 2, want: 4},
		{name: "all zeros", tree: star([]float64{0, 0, 0}), parts: 3, want: 0},
		{name: "star split", tree: star([]float64{1, 5, 5, 5}), parts: 2, want: 5},
		{name: "k>n infeasible", tree: chain([]float64{1, 1}), parts: 3, wantErr: ErrInfeasible},
		{name: "parts=0 bad bound", tree: chain([]float64{1, 1}), parts: 0, wantErr: ErrBadBound},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, _, err := MaxMinTree(ctx, tt.tree, tt.parts)
			if tt.wantErr != nil {
				if !errors.Is(err, tt.wantErr) {
					t.Fatalf("error = %v, want %v", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("MaxMinTree: %v", err)
			}
			if got.NumComponents() != tt.parts {
				t.Errorf("NumComponents = %d (cut %v), want %d", got.NumComponents(), got.Cut, tt.parts)
			}
			if v := minWeight(got.ComponentWeights); !feqTest(v, tt.want) {
				t.Errorf("min component = %v (weights %v), want %v", v, got.ComponentWeights, tt.want)
			}
		})
	}
}

func TestMaxMinPathVsBrute(t *testing.T) {
	r := workload.NewRNG(1711_00599)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(12)
		nodeW := make([]float64, n)
		for i := range nodeW {
			nodeW[i] = float64(r.Intn(20))
		}
		p := &graph.Path{NodeW: nodeW, EdgeW: make([]float64, n-1)}
		parts := 1 + r.Intn(n)
		got, _, err := MaxMinPath(ctx, p, parts)
		if err != nil {
			t.Fatalf("seed %d trial %d: MaxMinPath(parts=%d, nodeW=%v): %v", r.Seed(), trial, parts, nodeW, err)
		}
		want, err := oracle.MaxMinBrute(p.AsTree(), parts)
		if err != nil {
			t.Fatalf("oracle.MaxMinBrute: %v", err)
		}
		if v := minWeight(got.ComponentWeights); !feqTest(v, want.Value) {
			t.Fatalf("seed %d trial %d: min component = %v, brute = %v (nodeW=%v parts=%d cut=%v)",
				r.Seed(), trial, v, want.Value, nodeW, parts, got.Cut)
		}
	}
}

func TestMaxMinTreeVsBrute(t *testing.T) {
	r := workload.NewRNG(1711_00600)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(12)
		tr := workload.RandomTree(r, n, workload.UniformWeights(0, 20), workload.UniformWeights(1, 5))
		parts := 1 + r.Intn(n)
		got, _, err := MaxMinTree(ctx, tr, parts)
		if err != nil {
			t.Fatalf("seed %d trial %d: MaxMinTree(parts=%d): %v\nnodeW=%v edges=%v",
				r.Seed(), trial, parts, err, tr.NodeW, tr.Edges)
		}
		want, err := oracle.MaxMinBrute(tr, parts)
		if err != nil {
			t.Fatalf("oracle.MaxMinBrute: %v", err)
		}
		if v := minWeight(got.ComponentWeights); !feqTest(v, want.Value) {
			t.Fatalf("seed %d trial %d: min component = %v, brute = %v\nnodeW=%v edges=%v parts=%d cut=%v",
				r.Seed(), trial, v, want.Value, tr.NodeW, tr.Edges, parts, got.Cut)
		}
	}
}

func TestMaxMinPathTreeAgree(t *testing.T) {
	// The tree solver on a path viewed as a tree must match the path solver.
	r := workload.NewRNG(577215)
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(30)
		nodeW := make([]float64, n)
		for i := range nodeW {
			nodeW[i] = float64(1 + r.Intn(50))
		}
		p := &graph.Path{NodeW: nodeW, EdgeW: make([]float64, n-1)}
		parts := 1 + r.Intn(n)
		pp, _, err := MaxMinPath(ctx, p, parts)
		if err != nil {
			t.Fatalf("MaxMinPath: %v", err)
		}
		tp, _, err := MaxMinTree(ctx, p.AsTree(), parts)
		if err != nil {
			t.Fatalf("MaxMinTree: %v", err)
		}
		pv, tv := minWeight(pp.ComponentWeights), minWeight(tp.ComponentWeights)
		if !feqTest(pv, tv) {
			t.Fatalf("seed %d trial %d: path %v != tree %v (nodeW=%v parts=%d)",
				r.Seed(), trial, pv, tv, nodeW, parts)
		}
	}
}

func TestMaxMinCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &graph.Path{NodeW: []float64{1, 2, 3}, EdgeW: []float64{1, 1}}
	if _, _, err := MaxMinPath(ctx, p, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("MaxMinPath error = %v, want context.Canceled", err)
	}
	tr := p.AsTree()
	if _, _, err := MaxMinTree(ctx, tr, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("MaxMinTree error = %v, want context.Canceled", err)
	}
}
