package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

func TestBottleneckHandCases(t *testing.T) {
	tests := []struct {
		name  string
		nodeW []float64
		edges []graph.Edge
		k     float64
		want  float64 // optimal bottleneck
	}{
		{
			name:  "no cut needed",
			nodeW: []float64{1, 1, 1},
			edges: []graph.Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 9}},
			k:     10,
			want:  0,
		},
		{
			name:  "cut lightest works",
			nodeW: []float64{6, 6, 6},
			edges: []graph.Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 9}},
			k:     12,
			want:  5,
		},
		{
			name:  "must cut heavy edge",
			nodeW: []float64{6, 6, 6},
			edges: []graph.Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 9}},
			k:     7,
			want:  9,
		},
		{
			name:  "star heavy centre",
			nodeW: []float64{9, 2, 2, 2},
			edges: []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 2}, {U: 0, V: 3, W: 3}},
			k:     11,
			// centre(9)+all leaves = 15 > 11; cutting leaves in increasing
			// edge weight: cut w=1 → 13 > 11; cut w=2 too → 11 ≤ 11.
			want: 2,
		},
		{
			name:  "single vertex",
			nodeW: []float64{5},
			edges: nil,
			k:     5,
			want:  0,
		},
	}
	for _, tt := range tests {
		tr, err := graph.NewTree(tt.nodeW, tt.edges)
		if err != nil {
			t.Fatalf("%s: NewTree: %v", tt.name, err)
		}
		for _, impl := range []struct {
			name string
			f    func(context.Context, *graph.Tree, float64) (*TreePartition, int64, error)
		}{{"binary", Bottleneck}, {"greedy", BottleneckGreedy}} {
			t.Run(tt.name+"/"+impl.name, func(t *testing.T) {
				got, _, err := impl.f(ctx, tr, tt.k)
				if err != nil {
					t.Fatalf("%v", err)
				}
				if got.Bottleneck != tt.want {
					t.Errorf("Bottleneck = %v (cut %v), want %v", got.Bottleneck, got.Cut, tt.want)
				}
				if err := CheckTreeFeasible(tr, got.Cut, tt.k); err != nil {
					t.Errorf("infeasible: %v", err)
				}
			})
		}
	}
}

func TestBottleneckBinaryEqualsGreedy(t *testing.T) {
	r := workload.NewRNG(42)
	for trial := 0; trial < 200; trial++ {
		tr, k := randomTreeForTest(r, 40)
		a, _, err1 := Bottleneck(ctx, tr, k)
		b, _, err2 := BottleneckGreedy(ctx, tr, k)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error mismatch: %v vs %v", err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !reflect.DeepEqual(a.Cut, b.Cut) {
			t.Fatalf("cuts differ: binary %v, greedy %v", a.Cut, b.Cut)
		}
	}
}

func TestBottleneckOptimalVsBrute(t *testing.T) {
	r := workload.NewRNG(314)
	for trial := 0; trial < 200; trial++ {
		tr, k := randomTreeForTest(r, 11)
		want := treeBrute(t, tr, k)
		got, _, err := Bottleneck(ctx, tr, k)
		if !want.Feasible {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("seed %d trial %d: want infeasible, got %v / err %v", r.Seed(), trial, got, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d trial %d: Bottleneck: %v (tree %+v k=%v)", r.Seed(), trial, err, tr, k)
		}
		if math.Abs(got.Bottleneck-want.Bottleneck) > 1e-9 {
			t.Fatalf("seed %d trial %d: Bottleneck = %v, brute = %v\ntree=%+v k=%v cut=%v",
				r.Seed(), trial, got.Bottleneck, want.Bottleneck, tr, k, got.Cut)
		}
	}
}

func TestBottleneckInfeasibleAndBadInput(t *testing.T) {
	tr, _ := graph.NewTree([]float64{5, 50}, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, _, err := Bottleneck(ctx, tr, 10); !errors.Is(err, ErrInfeasible) {
		t.Errorf("error = %v, want ErrInfeasible", err)
	}
	if _, _, err := Bottleneck(ctx, tr, -1); !errors.Is(err, ErrBadBound) {
		t.Errorf("error = %v, want ErrBadBound", err)
	}
}

func TestBottleneckValue(t *testing.T) {
	tr, _ := graph.NewTree([]float64{6, 6, 6},
		[]graph.Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 9}})
	tp, _, err := Bottleneck(ctx, tr, 7)
	if err != nil {
		t.Fatalf("Bottleneck: %v", err)
	}
	if v := tp.Bottleneck; v != 9 {
		t.Errorf("Bottleneck = %v, want 9", v)
	}
}

func TestBottleneckCutIsSortedPrefixOfWeights(t *testing.T) {
	// Paper invariant: the output is a subset of {e_1..e_s}, the lightest
	// edges — every uncut edge weighs at least the bottleneck.
	r := workload.NewRNG(2718)
	for trial := 0; trial < 100; trial++ {
		tr, k := randomTreeForTest(r, 30)
		got, _, err := Bottleneck(ctx, tr, k)
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("Bottleneck: %v", err)
		}
		inCut := make(map[int]bool, len(got.Cut))
		for _, e := range got.Cut {
			inCut[e] = true
		}
		for i, e := range tr.Edges {
			if !inCut[i] && e.W < got.Bottleneck {
				// Uncut edges strictly lighter than the bottleneck would mean
				// the greedy skipped a lighter edge, violating Algorithm 2.1.
				// (Ties with the bottleneck weight may legitimately be split
				// by index order.)
				t.Fatalf("edge %d (w=%v) uncut but lighter than bottleneck %v", i, e.W, got.Bottleneck)
			}
		}
	}
}

// TestSortedEdgeOrderMatchesStable pins the bucketed edge order to a stable
// comparison sort by weight: ties, including −0 against +0, keep index order,
// and subnormal and huge weights sort by value.
func TestSortedEdgeOrderMatchesStable(t *testing.T) {
	r := workload.NewRNG(1994)
	ties := make([]float64, 300)
	for i := range ties {
		ties[i] = float64(r.Intn(4))
	}
	mixed := make([]float64, 500)
	for i := range mixed {
		mixed[i] = r.Float64() * math.Pow(10, float64(r.Intn(40)-20))
	}
	sub := math.SmallestNonzeroFloat64
	for name, ws := range map[string][]float64{
		"heavy ties":    ties,
		"signed zeros":  {0, math.Copysign(0, -1), 1, 0, math.Copysign(0, -1), 0.5, 0},
		"subnormals":    {2 * sub, sub, 0, math.Copysign(0, -1), 0x1p-1022, sub, 0x1p-1023},
		"huge":          {1e300, 1, math.MaxFloat64, 1e300, 0, 1e-300, 1e300},
		"scaled random": mixed,
		"one vertex":    nil,
	} {
		t.Run(name, func(t *testing.T) {
			edges := make([]graph.Edge, len(ws))
			for i, w := range ws {
				edges[i] = graph.Edge{U: i, V: i + 1, W: w}
			}
			tr := &graph.Tree{NodeW: make([]float64, len(ws)+1), Edges: edges}
			want := make([]int, len(ws))
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool { return ws[want[a]] < ws[want[b]] })
			got := sortedEdgeOrder(tr, new(scratch))
			if !slices.Equal(got, want) {
				t.Fatalf("bucketed order %v, stable sort %v", got, want)
			}
		})
	}
}

// oneBucketTree is the bucketed sweep's worst case: a random tree whose n−2
// lighter edges carry distinct weights 1 + i·2⁻⁴⁰ in shuffled order, which a
// single edge of weight MaxFloat64 packs into one weight bucket, so the
// sweep must sort one bucket of every edge but one.
func oneBucketTree(r *workload.RNG, n int) *graph.Tree {
	tr := workload.RandomTree(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	for i, j := range r.Perm(len(tr.Edges)) {
		tr.Edges[j].W = 1 + float64(i)*0x1p-40
	}
	tr.Edges[r.Intn(len(tr.Edges))].W = math.MaxFloat64
	return tr
}

// TestBottleneckBucketWorstCases runs the sweep where its buckets do not
// spread the edges: distinct weights packed into one bucket by a far
// outlier, and all-equal weights. The cut must equal the paper greedy's.
func TestBottleneckBucketWorstCases(t *testing.T) {
	r := workload.NewRNG(2026)
	for trial := 0; trial < 20; trial++ {
		n := 50 + r.Intn(400)
		packed := oneBucketTree(r, n)
		equal := workload.RandomTree(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
		for i := range equal.Edges {
			equal.Edges[i].W = 7
		}
		for name, tr := range map[string]*graph.Tree{"one bucket": packed, "all equal": equal} {
			bk := bucketEdges(tr, new(scratch))
			widest := 0
			for b := 0; b+1 < len(bk.start); b++ {
				widest = max(widest, int(bk.start[b+1]-bk.start[b]))
			}
			if widest < tr.NumEdges()-1 {
				t.Fatalf("%s: widest bucket holds %d of %d edges, want all but one at most", name, widest, tr.NumEdges())
			}
			for _, f := range []float64{1, 2, 5, 20} {
				k := f * tr.MaxNodeWeight()
				a, _, err := Bottleneck(ctx, tr, k)
				if err != nil {
					t.Fatalf("%s n=%d K=%v: Bottleneck: %v", name, n, k, err)
				}
				b, _, err := BottleneckGreedy(ctx, tr, k)
				if err != nil {
					t.Fatalf("%s n=%d K=%v: BottleneckGreedy: %v", name, n, k, err)
				}
				if !slices.Equal(a.Cut, b.Cut) {
					t.Fatalf("%s n=%d K=%v: sweep cut %v, greedy cut %v", name, n, k, a.Cut, b.Cut)
				}
			}
		}
	}
}
