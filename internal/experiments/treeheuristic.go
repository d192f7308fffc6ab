package experiments

import (
	"context"
	"io"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/treecut"
	"repro/internal/workload"
)

// This file quantifies the practical face of Theorem 1: tree bandwidth
// minimization is NP-complete, so general trees get either the
// pseudo-polynomial exact DP (integer weights) or the greedy heuristic.
// The study measures the heuristic's optimality gap against the exact DP
// across tree families.

// TreeHeuristicRow is one (family, size) measurement.
type TreeHeuristicRow struct {
	Family string
	N      int
	Trials int
	// MeanRatio and MaxRatio are greedy/exact cut-weight ratios (≥ 1);
	// exact-zero instances count as ratio 1 when greedy is also 0.
	MeanRatio, MaxRatio float64
	// OptimalRate is the fraction of instances where greedy matched exact.
	OptimalRate float64
}

// RunTreeHeuristic measures the greedy gap on random, star, and caterpillar
// trees with integer weights.
func RunTreeHeuristic(seed uint64, n, trials int) ([]TreeHeuristicRow, error) {
	rng := workload.NewRNG(seed)
	nodeW := workload.UniformWeights(1, 9)
	edgeW := workload.UniformWeights(1, 50)
	families := []struct {
		name string
		gen  func() *graph.Tree
	}{
		{"random", func() *graph.Tree { return intTree(workload.RandomTree(rng, n, nodeW, edgeW)) }},
		{"star", func() *graph.Tree { return intTree(workload.Star(rng, n, nodeW, edgeW)) }},
		{"caterpillar", func() *graph.Tree {
			return intTree(workload.Caterpillar(rng, n/4, 3, nodeW, edgeW))
		}},
	}
	var rows []TreeHeuristicRow
	for _, fam := range families {
		row := TreeHeuristicRow{Family: fam.name, N: n, Trials: trials, MaxRatio: 1}
		var ratioSum float64
		optimal := 0
		for trial := 0; trial < trials; trial++ {
			inst := fam.gen()
			k := 9 + rng.Intn(30)
			exact, _, err := treecut.TreeBandwidthExact(context.Background(), inst, k)
			if err != nil {
				trial--
				continue
			}
			greedy, _, err := treecut.TreeBandwidthGreedy(context.Background(), inst, float64(k))
			if err != nil {
				return nil, err
			}
			ratio := 1.0
			switch {
			case exact.Weight > 0:
				ratio = greedy.Weight / exact.Weight
			case greedy.Weight > 0:
				ratio = 2 // exact is zero, greedy is not: count as a big miss
			}
			ratioSum += ratio
			if ratio <= 1+1e-9 {
				optimal++
			}
			if ratio > row.MaxRatio {
				row.MaxRatio = ratio
			}
		}
		row.MeanRatio = ratioSum / float64(trials)
		row.OptimalRate = float64(optimal) / float64(trials)
		rows = append(rows, row)
	}
	return rows, nil
}

// intTree truncates weights to integers for the exact DP.
func intTree(t *graph.Tree) *graph.Tree {
	for v := range t.NodeW {
		w := float64(int(t.NodeW[v]))
		if w < 1 {
			w = 1
		}
		t.NodeW[v] = w
	}
	for i := range t.Edges {
		t.Edges[i].W = float64(int(t.Edges[i].W))
	}
	return t
}

// RenderTreeHeuristic writes the study table.
func RenderTreeHeuristic(w io.Writer, rows []TreeHeuristicRow) error {
	t := stats.NewTable("family", "n", "trials", "mean greedy/exact", "max", "optimal rate")
	for _, r := range rows {
		t.AddRow(r.Family, r.N, r.Trials, r.MeanRatio, r.MaxRatio, r.OptimalRate)
	}
	return t.Render(w)
}
