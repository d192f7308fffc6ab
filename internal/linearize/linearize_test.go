package linearize

import (
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// ringGraph builds an n-cycle with the given node and edge weights.
func ringGraph(t *testing.T, nodeW, edgeW []float64) *graph.Graph {
	t.Helper()
	n := len(nodeW)
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{U: i, V: (i + 1) % n, W: edgeW[i]}
	}
	g, err := graph.NewGraph(nodeW, edges)
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	return g
}

func TestBFSBandsOnRing(t *testing.T) {
	g := ringGraph(t, []float64{1, 2, 3, 4, 5, 6}, []float64{1, 1, 1, 1, 1, 1})
	b, err := BFSBands(g, 0)
	if err != nil {
		t.Fatalf("BFSBands: %v", err)
	}
	// BFS levels on a 6-ring from 0: {0}, {1,5}, {2,4}, {3} → 4 bands.
	if b.Path.Len() != 4 {
		t.Fatalf("bands = %d, want 4 (path %+v)", b.Path.Len(), b.Path)
	}
	if got := b.Path.TotalNodeWeight(); got != g.TotalNodeWeight() {
		t.Errorf("band weights sum %v, want %v", got, g.TotalNodeWeight())
	}
	q := b.Quality(g)
	if math.Abs(q.AdjacentWeight+q.InternalWeight-g.TotalEdgeWeight()) > 1e-9 {
		t.Errorf("quality weights %v+%v don't sum to %v", q.AdjacentWeight, q.InternalWeight, g.TotalEdgeWeight())
	}
}

func TestBFSBandsErrors(t *testing.T) {
	g := ringGraph(t, []float64{1, 1, 1}, []float64{1, 1, 1})
	if _, err := BFSBands(g, 7); !errors.Is(err, ErrBadSeed) {
		t.Errorf("bad seed: %v", err)
	}
	disc, _ := graph.NewGraph([]float64{1, 1, 1}, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := BFSBands(disc, 0); !errors.Is(err, ErrDisconnected) {
		t.Errorf("disconnected: %v", err)
	}
}

func TestProjectCutWeightMatches(t *testing.T) {
	r := workload.NewRNG(23)
	tr := workload.RandomTree(r, 40, workload.UniformWeights(1, 10), workload.UniformWeights(1, 20))
	g, err := graph.NewGraph(tr.NodeW, tr.Edges)
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	b, err := BFSBands(g, 0)
	if err != nil {
		t.Fatalf("BFSBands: %v", err)
	}
	if b.Path.NumEdges() == 0 {
		t.Skip("degenerate banding")
	}
	pathCut := []int{b.Path.NumEdges() / 2}
	projected, err := b.ProjectCut(g, pathCut)
	if err != nil {
		t.Fatalf("ProjectCut: %v", err)
	}
	// For BFS bandings the projected cut weight equals the path cut weight.
	want, _ := b.Path.CutWeight(pathCut)
	var got float64
	for _, e := range projected {
		got += g.Edges[e].W
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("projected cut weight %v != path cut weight %v", got, want)
	}
}

func TestRingToPath(t *testing.T) {
	g := ringGraph(t, []float64{10, 20, 30, 40}, []float64{5, 6, 1, 8})
	p, order, ok := RingToPath(g)
	if !ok {
		t.Fatal("RingToPath failed on a ring")
	}
	if p.Len() != 4 {
		t.Fatalf("path len = %d, want 4", p.Len())
	}
	// The lightest edge (weight 1, between vertices 2 and 3) is cut, so the
	// path should start at 3 and end at 2.
	if order[0] != 3 || order[len(order)-1] != 2 {
		t.Errorf("order = %v, want walk from 3 to 2", order)
	}
	if p.TotalNodeWeight() != 100 {
		t.Errorf("node weight %v, want 100", p.TotalNodeWeight())
	}
	var sum float64
	for _, w := range p.EdgeW {
		sum += w
	}
	if sum != 19 { // 5+6+8, the uncut edges
		t.Errorf("edge weights sum %v, want 19", sum)
	}
}

func TestRingToPathRejectsNonRings(t *testing.T) {
	tree, _ := graph.NewGraph([]float64{1, 1, 1}, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	if _, _, ok := RingToPath(tree); ok {
		t.Error("accepted a tree")
	}
	star, _ := graph.NewGraph([]float64{1, 1, 1, 1},
		[]graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 0, V: 3, W: 1}, {U: 1, V: 2, W: 1}})
	if _, _, ok := RingToPath(star); ok {
		t.Error("accepted a non-ring with n edges")
	}
	small := ringGraph(t, []float64{1, 1}, []float64{1, 1})
	_ = small // a 2-ring has parallel edges; NewGraph allows them but RingToPath must reject
	if _, _, ok := RingToPath(small); ok {
		t.Error("accepted a 2-ring")
	}
}
