package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/verify/oracle"
	"repro/internal/workload"
)

// sumOfMax returns the sum-of-max objective value of a tree partition.
func sumOfMax(t *testing.T, tr *graph.Tree, tp *TreePartition) float64 {
	t.Helper()
	ms, err := tr.ComponentMaxNodeWeights(tp.Cut)
	if err != nil {
		t.Fatalf("ComponentMaxNodeWeights: %v", err)
	}
	var s float64
	for _, m := range ms {
		s += m
	}
	return s
}

func TestSumOfMaxTreeEdgeCases(t *testing.T) {
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
		want    float64 // optimal sum of per-component maxima
		wantErr error
	}{
		{name: "k=1 pays global max", tree: chain([]float64{3, 9, 2}), parts: 1, want: 9},
		{name: "k=n pays every weight", tree: chain([]float64{3, 9, 2}), parts: 3, want: 14},
		{name: "single node", tree: &graph.Tree{NodeW: []float64{5}}, parts: 1, want: 5},
		{name: "all equal", tree: chain([]float64{4, 4, 4, 4}), parts: 3, want: 12},
		// Splitting off a zero-weight singleton {0} | {7,0,7} pays 0 + 7.
		{name: "zero-weight nodes absorb free", tree: chain([]float64{0, 7, 0, 7}), parts: 2, want: 7},
		{name: "zero parts pay nothing", tree: chain([]float64{0, 0, 5}), parts: 2, want: 5},
		{name: "cluster around heavies", tree: chain([]float64{9, 1, 1, 8}), parts: 2, want: 17},
		{name: "star prefers light leaves", tree: star([]float64{2, 1, 1, 9}), parts: 2, want: 10},
		{name: "k>n infeasible", tree: chain([]float64{1, 1}), parts: 3, wantErr: ErrInfeasible},
		{name: "parts=0 bad bound", tree: chain([]float64{1, 1}), parts: 0, wantErr: ErrBadBound},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, _, err := SumOfMaxTree(ctx, tt.tree, tt.parts)
			if tt.wantErr != nil {
				if !errors.Is(err, tt.wantErr) {
					t.Fatalf("error = %v, want %v", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("SumOfMaxTree: %v", err)
			}
			if got.NumComponents() != tt.parts {
				t.Errorf("NumComponents = %d (cut %v), want %d", got.NumComponents(), got.Cut, tt.parts)
			}
			if v := sumOfMax(t, tt.tree, got); !feqTest(v, tt.want) {
				t.Errorf("sum of maxes = %v (cut %v), want %v", v, got.Cut, tt.want)
			}
			if got.K != float64(tt.parts) {
				t.Errorf("K = %v, want %v", got.K, float64(tt.parts))
			}
		})
	}
}

func TestSumOfMaxTreeVsBrute(t *testing.T) {
	r := workload.NewRNG(2503_11526)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(12)
		tr := workload.RandomTree(r, n, workload.UniformWeights(0, 20), workload.UniformWeights(1, 5))
		parts := 1 + r.Intn(n)
		got, _, err := SumOfMaxTree(ctx, tr, parts)
		if err != nil {
			t.Fatalf("seed %d trial %d: SumOfMaxTree(parts=%d): %v\nnodeW=%v edges=%v",
				r.Seed(), trial, parts, err, tr.NodeW, tr.Edges)
		}
		want, err := oracle.SumOfMaxBrute(tr, parts)
		if err != nil {
			t.Fatalf("oracle.SumOfMaxBrute: %v", err)
		}
		if v := sumOfMax(t, tr, got); !feqTest(v, want.Value) {
			t.Fatalf("seed %d trial %d: sum of maxes = %v, brute = %v\nnodeW=%v edges=%v parts=%d cut=%v bruteCut=%v",
				r.Seed(), trial, v, want.Value, tr.NodeW, tr.Edges, parts, got.Cut, want.Cut)
		}
		// The independent map-backed DP must agree with both.
		dp, err := oracle.SumOfMaxDP(tr, parts)
		if err != nil {
			t.Fatalf("oracle.SumOfMaxDP: %v", err)
		}
		if !feqTest(dp, want.Value) {
			t.Fatalf("seed %d trial %d: oracle DP = %v, brute = %v", r.Seed(), trial, dp, want.Value)
		}
	}
}

func TestSumOfMaxTreeLargerAgainstOracleDP(t *testing.T) {
	// Beyond brute reach: check the Pareto-pruned production DP against the
	// independent map-backed oracle DP on mid-size trees.
	r := workload.NewRNG(6180339)
	for trial := 0; trial < 40; trial++ {
		n := 20 + r.Intn(60)
		tr := workload.RandomTree(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 5))
		parts := 1 + r.Intn(8)
		got, _, err := SumOfMaxTree(ctx, tr, parts)
		if err != nil {
			t.Fatalf("seed %d trial %d: SumOfMaxTree(n=%d, parts=%d): %v", r.Seed(), trial, n, parts, err)
		}
		want, err := oracle.SumOfMaxDP(tr, parts)
		if err != nil {
			t.Fatalf("oracle.SumOfMaxDP: %v", err)
		}
		if v := sumOfMax(t, tr, got); !feqTest(v, want) {
			t.Fatalf("seed %d trial %d: production DP = %v, oracle DP = %v (n=%d parts=%d)",
				r.Seed(), trial, v, want, n, parts)
		}
	}
}

func TestSumOfMaxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := &graph.Tree{NodeW: []float64{1, 2, 3}, Edges: []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}}
	if _, _, err := SumOfMaxTree(ctx, tr, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("SumOfMaxTree error = %v, want context.Canceled", err)
	}
}

// TestPartCountSpanAttrs checks the instance statistics the two part-count
// tree solvers attach to their spans: the sum-of-max table size, and the
// vertices the max–min probes walked, which fall below a full walk per probe
// once the active list shrinks.
func TestPartCountSpanAttrs(t *testing.T) {
	const n = 2000
	tr := workload.RandomTree(workload.NewRNG(27), n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	attrs := func(solve func(context.Context) error, phase string) map[string]any {
		t.Helper()
		trace := obs.New("solve")
		if err := solve(obs.NewContext(context.Background(), trace)); err != nil {
			t.Fatal(err)
		}
		trace.Finish()
		for _, sp := range trace.Tree().Children {
			if sp.Name == phase {
				return sp.Attrs
			}
		}
		t.Fatalf("no %s span", phase)
		return nil
	}

	sm := attrs(func(ctx context.Context) error {
		_, _, err := SumOfMaxTree(ctx, tr, 8)
		return err
	}, "summax-dp")
	states, _ := sm["states"].(int)
	frontMax, _ := sm["front_max"].(int)
	if states < n || frontMax < 1 || frontMax > states {
		t.Errorf("summax-dp states = %v, front_max = %v: want states ≥ %d and 1 ≤ front_max ≤ states", sm["states"], sm["front_max"], n)
	}

	mm := attrs(func(ctx context.Context) error {
		_, _, err := MaxMinTree(ctx, tr, 16)
		return err
	}, "parametric-search")
	probes, _ := mm["probes"].(int)
	walked, _ := mm["walked"].(int)
	// The first two probes walk every non-root vertex; the rest walk only
	// the active list.
	if probes < 3 || walked < 2*(n-1) || walked >= probes*(n-1) {
		t.Errorf("parametric-search probes = %v, walked = %v: want ≥ 3 probes and 2·%d ≤ walked < probes·%d", mm["probes"], mm["walked"], n-1, n-1)
	}
	t.Logf("summax-dp: %d states, front_max %d; parametric-search: %d probes walked %d of %d vertices", states, frontMax, probes, walked, probes*(n-1))
}
