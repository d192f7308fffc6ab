package linearize

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/workload"
)

// randomConnectedGraph builds a random tree plus extra random edges.
func randomConnectedGraph(r *workload.RNG, n, extra int) *graph.Graph {
	tr := workload.RandomTree(r, n, workload.UniformWeights(1, 10), workload.UniformWeights(1, 10))
	edges := append([]graph.Edge(nil), tr.Edges...)
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v, W: r.Uniform(1, 10)})
	}
	g, err := graph.NewGraph(tr.NodeW, edges)
	if err != nil {
		return nil
	}
	return g.MergeParallel()
}

// Property: BFS banding is exact — node weight preserved, all edge weight
// internal or between adjacent bands, every vertex assigned — for arbitrary
// connected graphs and seeds.
func TestBFSBandsExactProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := workload.NewRNG(seed)
		n := 2 + r.Intn(80)
		g := randomConnectedGraph(r, n, r.Intn(2*n))
		if g == nil {
			return false
		}
		seed2 := r.Intn(n)
		b, err := BFSBands(g, seed2)
		if err != nil {
			return false
		}
		if math.Abs(b.Path.TotalNodeWeight()-g.TotalNodeWeight()) > 1e-9 {
			return false
		}
		q := b.Quality(g)
		total := q.InternalWeight + q.AdjacentWeight
		if math.Abs(total-g.TotalEdgeWeight()) > 1e-9 {
			return false
		}
		for _, band := range b.Band {
			if band < 0 || band >= b.Path.Len() {
				return false
			}
		}
		return b.Path.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: ProjectCut yields an original-graph cut whose crossing weight
// equals the super-graph cut weight (BFS bandings only).
func TestProjectCutWeightProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := workload.NewRNG(seed)
		n := 4 + r.Intn(60)
		g := randomConnectedGraph(r, n, r.Intn(n))
		if g == nil {
			return false
		}
		b, err := BFSBands(g, 0)
		if err != nil {
			return false
		}
		if b.Path.NumEdges() == 0 {
			return true
		}
		cut := []int{r.Intn(b.Path.NumEdges())}
		projected, err := b.ProjectCut(g, cut)
		if err != nil {
			return false
		}
		want, err := b.Path.CutWeight(cut)
		if err != nil {
			return false
		}
		var got float64
		for _, e := range projected {
			got += g.Edges[e].W
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
