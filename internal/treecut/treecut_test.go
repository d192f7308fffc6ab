package treecut

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// ctx is the context the solver calls in this package's tests run under.
var ctx = context.Background()

func TestKnapsackDPHandCases(t *testing.T) {
	tests := []struct {
		name     string
		items    []KnapsackItem
		capacity int
		want     float64
		chosen   []int
	}{
		{"empty", nil, 10, 0, nil},
		{"zero capacity", []KnapsackItem{{Weight: 1, Profit: 5}}, 0, 0, nil},
		{
			"classic",
			[]KnapsackItem{{2, 3}, {3, 4}, {4, 5}, {5, 6}},
			5, 7, []int{0, 1},
		},
		{
			"take all",
			[]KnapsackItem{{1, 1}, {1, 1}},
			5, 2, []int{0, 1},
		},
		{
			"heavy beats light",
			[]KnapsackItem{{5, 10}, {1, 1}, {1, 1}},
			5, 10, []int{0},
		},
		{
			"zero-weight item always taken",
			[]KnapsackItem{{0, 7}, {5, 3}},
			4, 7, []int{0},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := KnapsackDP(tt.items, tt.capacity)
			if err != nil {
				t.Fatalf("KnapsackDP: %v", err)
			}
			if got.Profit != tt.want {
				t.Errorf("Profit = %v, want %v (chosen %v)", got.Profit, tt.want, got.Chosen)
			}
			if tt.chosen != nil && !reflect.DeepEqual(got.Chosen, tt.chosen) {
				t.Errorf("Chosen = %v, want %v", got.Chosen, tt.chosen)
			}
			// Verify the chosen set is consistent with the reported profit
			// and capacity.
			var w int
			var p float64
			for _, i := range got.Chosen {
				w += tt.items[i].Weight
				p += tt.items[i].Profit
			}
			if w > tt.capacity || math.Abs(p-got.Profit) > 1e-9 {
				t.Errorf("chosen %v: weight %d, profit %v vs reported %v", got.Chosen, w, p, got.Profit)
			}
		})
	}
}

func TestKnapsackDPErrors(t *testing.T) {
	if _, err := KnapsackDP(nil, -1); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative capacity: %v", err)
	}
	if _, err := KnapsackDP([]KnapsackItem{{Weight: -1, Profit: 1}}, 5); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative weight: %v", err)
	}
	if _, err := KnapsackDP([]KnapsackItem{{Weight: 1, Profit: math.NaN()}}, 5); !errors.Is(err, ErrBadInput) {
		t.Errorf("nan profit: %v", err)
	}
}

func TestKnapsackToStarRoundTrip(t *testing.T) {
	items := []KnapsackItem{{2, 3}, {3, 4}, {4, 5}}
	star, err := KnapsackToStar(items)
	if err != nil {
		t.Fatalf("KnapsackToStar: %v", err)
	}
	if !star.IsStar() {
		t.Fatal("result is not a star")
	}
	back, err := StarToKnapsack(star)
	if err != nil {
		t.Fatalf("StarToKnapsack: %v", err)
	}
	if !reflect.DeepEqual(back, items) {
		t.Errorf("round trip = %+v, want %+v", back, items)
	}
}

func TestStarToKnapsackRejectsNonStar(t *testing.T) {
	path, _ := graph.NewTree([]float64{1, 1, 1, 1}, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	})
	if _, err := StarToKnapsack(path); !errors.Is(err, ErrBadInput) {
		t.Errorf("error = %v, want ErrBadInput", err)
	}
	frac, _ := graph.NewTree([]float64{0, 1.5}, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := StarToKnapsack(frac); !errors.Is(err, ErrBadInput) {
		t.Errorf("fractional leaf: error = %v, want ErrBadInput", err)
	}
}

// TestTheorem1ReductionForward verifies the paper's mapping: a maximum-profit
// packing corresponds to a minimum-weight star cut with
// δ(S) = Σp − profit(I).
func TestTheorem1ReductionForward(t *testing.T) {
	r := workload.NewRNG(1994)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(12)
		items := make([]KnapsackItem, n)
		var totalProfit float64
		for i := range items {
			items[i] = KnapsackItem{Weight: 1 + r.Intn(9), Profit: float64(1 + r.Intn(30))}
			totalProfit += items[i].Profit
		}
		capacity := 1 + r.Intn(30)
		pack, err := KnapsackDP(items, capacity)
		if err != nil {
			t.Fatalf("KnapsackDP: %v", err)
		}
		star, err := KnapsackToStar(items)
		if err != nil {
			t.Fatalf("KnapsackToStar: %v", err)
		}
		// Bound K = capacity (centre weight 0). Solve the star cut exactly
		// two independent ways: via knapsack (SolveStarExact) and via the
		// generic tree DP.
		maxLeaf := 0
		for _, it := range items {
			if it.Weight > maxLeaf {
				maxLeaf = it.Weight
			}
		}
		k := capacity
		if maxLeaf > k {
			k = maxLeaf // keep the instance feasible: pruned leaves stand alone
		}
		cutA, err := SolveStarExact(star, float64(capacity))
		if maxLeaf > capacity {
			// Some leaf alone exceeds the capacity bound: infeasible star.
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("want ErrInfeasible, got %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("SolveStarExact: %v", err)
		}
		wantCutWeight := totalProfit - pack.Profit
		if math.Abs(cutA.Weight-wantCutWeight) > 1e-9 {
			t.Fatalf("star cut weight %v != Σp − OPT = %v (items %+v cap %d)",
				cutA.Weight, wantCutWeight, items, capacity)
		}
		cutB, _, err := TreeBandwidthExact(ctx, star, k)
		if err != nil {
			t.Fatalf("TreeBandwidthExact: %v", err)
		}
		if k == capacity && math.Abs(cutB.Weight-wantCutWeight) > 1e-9 {
			t.Fatalf("tree DP cut weight %v != %v", cutB.Weight, wantCutWeight)
		}
	}
}

// TestTheorem1ReductionBackward verifies the other direction: solving the
// star cut solves the knapsack.
func TestTheorem1ReductionBackward(t *testing.T) {
	r := workload.NewRNG(8128)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(10)
		items := make([]KnapsackItem, n)
		var totalProfit float64
		for i := range items {
			items[i] = KnapsackItem{Weight: 1 + r.Intn(6), Profit: float64(1 + r.Intn(20))}
			totalProfit += items[i].Profit
		}
		capacity := n * 3
		star, err := KnapsackToStar(items)
		if err != nil {
			t.Fatalf("KnapsackToStar: %v", err)
		}
		cut, err := SolveStarExact(star, float64(capacity))
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			t.Fatalf("SolveStarExact: %v", err)
		}
		// The kept items form a packing of profit Σp − δ(S); it must be
		// optimal.
		inCut := make(map[int]bool, len(cut.Cut))
		for _, e := range cut.Cut {
			inCut[e] = true
		}
		var keptW int
		var keptP float64
		for i, it := range items {
			if !inCut[i] {
				keptW += it.Weight
				keptP += it.Profit
			}
		}
		if keptW > capacity {
			t.Fatalf("kept items overflow the knapsack: %d > %d", keptW, capacity)
		}
		pack, err := KnapsackDP(items, capacity)
		if err != nil {
			t.Fatalf("KnapsackDP: %v", err)
		}
		if math.Abs(keptP-pack.Profit) > 1e-9 {
			t.Fatalf("kept profit %v != optimal %v", keptP, pack.Profit)
		}
	}
}

func TestTreeBandwidthExactMatchesBB(t *testing.T) {
	r := workload.NewRNG(31415)
	for trial := 0; trial < 150; trial++ {
		n := 2 + r.Intn(10)
		tr := workload.RandomTree(r, n,
			workload.Weights{Dist: workload.DistConstant, Lo: 1, Hi: 1}, // placeholder, overwritten below
			workload.UniformWeights(1, 20))
		for v := range tr.NodeW {
			tr.NodeW[v] = float64(1 + r.Intn(8))
		}
		k := 8 + r.Intn(20)
		exact, _, err1 := TreeBandwidthExact(ctx, tr, k)
		bb, _, err2 := TreeBandwidthBB(ctx, tr, float64(k))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error mismatch: %v vs %v", err1, err2)
		}
		if err1 != nil {
			continue
		}
		if math.Abs(exact.Weight-bb.Weight) > 1e-9 {
			t.Fatalf("exact %v != BB %v\nnodeW=%v edges=%v k=%d\nexact cut=%v bb cut=%v",
				exact.Weight, bb.Weight, tr.NodeW, tr.Edges, k, exact.Cut, bb.Cut)
		}
		// The exact cut must be feasible.
		maxW, err := tr.MaxComponentWeight(exact.Cut)
		if err != nil {
			t.Fatalf("MaxComponentWeight: %v", err)
		}
		if maxW > float64(k) {
			t.Fatalf("exact cut infeasible: component %v > %d", maxW, k)
		}
	}
}

func TestTreeBandwidthGreedyFeasibleAndBounded(t *testing.T) {
	r := workload.NewRNG(2020)
	worst := 1.0
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(10)
		tr := workload.RandomTree(r, n, workload.UniformWeights(1, 8), workload.UniformWeights(1, 20))
		for v := range tr.NodeW {
			tr.NodeW[v] = math.Trunc(tr.NodeW[v])
		}
		k := 8 + r.Intn(20)
		exact, _, err := TreeBandwidthExact(ctx, tr, k)
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		greedy, _, err := TreeBandwidthGreedy(ctx, tr, float64(k))
		if err != nil {
			t.Fatalf("greedy: %v", err)
		}
		maxW, err := tr.MaxComponentWeight(greedy.Cut)
		if err != nil {
			t.Fatalf("MaxComponentWeight: %v", err)
		}
		if maxW > float64(k) {
			t.Fatalf("greedy cut infeasible")
		}
		if greedy.Weight < exact.Weight-1e-9 {
			t.Fatalf("greedy %v beat exact %v — exact solver is wrong", greedy.Weight, exact.Weight)
		}
		if exact.Weight > 0 {
			if ratio := greedy.Weight / exact.Weight; ratio > worst {
				worst = ratio
			}
		}
	}
	t.Logf("worst greedy/exact ratio observed: %.3f", worst)
}

// TestTreeBandwidthGreedyDeterministic: tied edge weights give the
// redundancy pass a choice of restore order, and fractional weights make the
// cut-weight sum order-sensitive; the greedy must make the same choice and
// the same sum on every run.
func TestTreeBandwidthGreedyDeterministic(t *testing.T) {
	// A star: the centre absorbs 40 leaves of mixed load through edges of
	// three tied fractional weights, so most leaves are cut and then retried.
	nodeW := []float64{1}
	var edges []graph.Edge
	for i := 1; i <= 40; i++ {
		nodeW = append(nodeW, float64(1+i%5))
		edges = append(edges, graph.Edge{U: 0, V: i, W: []float64{0.1, 0.7, 1.3}[i%3]})
	}
	tr, err := graph.NewTree(nodeW, edges)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := TreeBandwidthGreedy(ctx, tr, 30)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 50; run++ {
		got, _, err := TreeBandwidthGreedy(ctx, tr, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Cut, first.Cut) {
			t.Fatalf("run %d: cut %v, want %v", run, got.Cut, first.Cut)
		}
		if math.Float64bits(got.Weight) != math.Float64bits(first.Weight) {
			t.Fatalf("run %d: weight %v, want bit-identical %v", run, got.Weight, first.Weight)
		}
	}
}

func TestTreeBandwidthExactErrors(t *testing.T) {
	tr, _ := graph.NewTree([]float64{1, 2}, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, _, err := TreeBandwidthExact(ctx, tr, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("k=0: %v", err)
	}
	frac, _ := graph.NewTree([]float64{1.5, 2}, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, _, err := TreeBandwidthExact(ctx, frac, 5); !errors.Is(err, ErrBadInput) {
		t.Errorf("fractional: %v", err)
	}
	heavy, _ := graph.NewTree([]float64{10, 2}, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, _, err := TreeBandwidthExact(ctx, heavy, 5); !errors.Is(err, ErrInfeasible) {
		t.Errorf("heavy vertex: %v", err)
	}
	big, _ := graph.NewTree(make([]float64, 2), []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, _, err := TreeBandwidthExact(ctx, big, 100_000_000); !errors.Is(err, ErrTooLarge) {
		t.Errorf("too large: %v", err)
	}
	if _, _, err := TreeBandwidthBB(ctx, tr, math.NaN()); !errors.Is(err, ErrBadInput) {
		t.Errorf("BB nan: %v", err)
	}
	wide := workload.RandomTree(workload.NewRNG(1), 30, workload.UniformWeights(1, 2), workload.UniformWeights(1, 2))
	if _, _, err := TreeBandwidthBB(ctx, wide, 100); !errors.Is(err, ErrTooLarge) {
		t.Errorf("BB too large: %v", err)
	}
}

func TestTreeBandwidthSingleVertex(t *testing.T) {
	tr, _ := graph.NewTree([]float64{3}, nil)
	got, _, err := TreeBandwidthExact(ctx, tr, 3)
	if err != nil {
		t.Fatalf("TreeBandwidthExact: %v", err)
	}
	if len(got.Cut) != 0 || got.Weight != 0 {
		t.Errorf("single vertex cut = %+v, want empty", got)
	}
}
