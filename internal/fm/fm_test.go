package fm

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/linearize"
	"repro/internal/workload"
)

// bruteBipartition finds the optimal balanced two-way cut for tiny graphs.
func bruteBipartition(t *testing.T, g *graph.Graph, maxSide float64) float64 {
	t.Helper()
	n := g.Len()
	if n > 16 {
		t.Fatalf("bruteBipartition: n=%d too large", n)
	}
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		var sw [2]float64
		for v := 0; v < n; v++ {
			sw[mask>>v&1] += g.NodeW[v]
		}
		if sw[0] > maxSide || sw[1] > maxSide {
			continue
		}
		var cut float64
		for _, e := range g.Edges {
			if mask>>e.U&1 != mask>>e.V&1 {
				cut += e.W
			}
		}
		if cut < best {
			best = cut
		}
	}
	return best
}

func TestBipartitionHandCase(t *testing.T) {
	// Two tight clusters joined by one light bridge.
	g, err := graph.NewGraph(
		[]float64{1, 1, 1, 1, 1, 1},
		[]graph.Edge{
			{U: 0, V: 1, W: 10}, {U: 1, V: 2, W: 10}, {U: 0, V: 2, W: 10},
			{U: 3, V: 4, W: 10}, {U: 4, V: 5, W: 10}, {U: 3, V: 5, W: 10},
			{U: 2, V: 3, W: 1}, // the bridge
		},
	)
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	// Bound 4 leaves one unit of slack so refinement can move vertices (a
	// bound of exactly half the total freezes every move; see the doc
	// comment on Bipartition).
	res, err := Bipartition(g, 4, 1)
	if err != nil {
		t.Fatalf("Bipartition: %v", err)
	}
	if res.CutWeight != 1 {
		t.Errorf("CutWeight = %v (sides %v), want 1 (cut the bridge)", res.CutWeight, res.Side)
	}
	if res.SideWeights[0] != 3 || res.SideWeights[1] != 3 {
		t.Errorf("SideWeights = %v, want [3 3]", res.SideWeights)
	}
}

func TestBipartitionErrors(t *testing.T) {
	g, _ := graph.NewGraph([]float64{5, 5}, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := Bipartition(g, 4, 1); !errors.Is(err, ErrBalance) {
		t.Errorf("too tight: %v", err)
	}
	heavy, _ := graph.NewGraph([]float64{9, 1}, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := Bipartition(heavy, 8, 1); !errors.Is(err, ErrBalance) {
		t.Errorf("heavy vertex: %v", err)
	}
	if _, err := Bipartition(g, math.NaN(), 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("nan bound: %v", err)
	}
}

func TestBipartitionNearOptimalOnSmallGraphs(t *testing.T) {
	r := workload.NewRNG(7)
	worse, total := 0, 0
	for trial := 0; trial < 150; trial++ {
		n := 4 + r.Intn(9)
		tr := workload.RandomTree(r, n, workload.UniformWeights(1, 5), workload.UniformWeights(1, 20))
		extra := r.Intn(n)
		edges := append([]graph.Edge(nil), tr.Edges...)
		for i := 0; i < extra; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v, W: r.Uniform(1, 20)})
			}
		}
		g, err := graph.NewGraph(tr.NodeW, edges)
		if err != nil {
			t.Fatalf("NewGraph: %v", err)
		}
		g = g.MergeParallel()
		maxSide := g.TotalNodeWeight()*0.65 + 1
		opt := bruteBipartition(t, g, maxSide)
		res, err := Bipartition(g, maxSide, uint64(trial))
		if err != nil {
			t.Fatalf("Bipartition: %v", err)
		}
		if res.CutWeight < opt-1e-9 {
			t.Fatalf("heuristic %v beat brute optimum %v — brute is wrong", res.CutWeight, opt)
		}
		total++
		if res.CutWeight > opt+1e-9 {
			worse++
		}
		// Balance always respected.
		if res.SideWeights[0] > maxSide+1e-9 || res.SideWeights[1] > maxSide+1e-9 {
			t.Fatalf("balance violated: %v > %v", res.SideWeights, maxSide)
		}
	}
	// FM is a heuristic, but on graphs this small it should find the
	// optimum most of the time.
	if worse*3 > total {
		t.Errorf("heuristic missed the optimum on %d/%d instances", worse, total)
	}
	t.Logf("optimal on %d/%d instances", total-worse, total)
}

func TestBipartitionDeterministicPerSeed(t *testing.T) {
	r := workload.NewRNG(11)
	tr := workload.RandomTree(r, 50, workload.UniformWeights(1, 5), workload.UniformWeights(1, 9))
	g, _ := graph.NewGraph(tr.NodeW, tr.Edges)
	a, err := Bipartition(g, g.TotalNodeWeight()*0.6, 42)
	if err != nil {
		t.Fatalf("a: %v", err)
	}
	b, err := Bipartition(g, g.TotalNodeWeight()*0.6, 42)
	if err != nil {
		t.Fatalf("b: %v", err)
	}
	if a.CutWeight != b.CutWeight {
		t.Errorf("same seed, different cuts: %v vs %v", a.CutWeight, b.CutWeight)
	}
}

func TestPartitionKWay(t *testing.T) {
	r := workload.NewRNG(13)
	tr := workload.RandomTree(r, 60, workload.UniformWeights(1, 4), workload.UniformWeights(1, 9))
	g, _ := graph.NewGraph(tr.NodeW, tr.Edges)
	k := 4
	maxPart := g.TotalNodeWeight()/float64(k) + 8
	part, err := Partition(g, k, maxPart, 3)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	weights := make([]float64, k)
	for v, p := range part {
		if p < 0 || p >= k {
			t.Fatalf("part[%d] = %d out of range", v, p)
		}
		weights[p] += g.NodeW[v]
	}
	for p, w := range weights {
		if w > maxPart+1e-9 {
			t.Errorf("part %d weight %v > %v", p, w, maxPart)
		}
	}
	if _, err := CutWeight(g, part); err != nil {
		t.Errorf("CutWeight: %v", err)
	}
	if _, err := Partition(g, 0, 10, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := CutWeight(g, part[:3]); !errors.Is(err, ErrBadInput) {
		t.Errorf("short assignment: %v", err)
	}
}

// TestExactBeatsHeuristicOnLinearizableSystems reproduces the §3 argument:
// when the system is linear (or linearizable), the paper's exact bandwidth
// algorithm never loses to the general-purpose heuristic at the same load
// bound, and the FM cut can be strictly worse.
func TestExactBeatsHeuristicOnLinearizableSystems(t *testing.T) {
	r := workload.NewRNG(1994)
	strictly := 0
	for trial := 0; trial < 40; trial++ {
		n := 30 + r.Intn(60)
		p := workload.RandomPath(r, n, workload.UniformWeights(1, 10), workload.UniformWeights(1, 100))
		g, err := graph.NewGraph(p.NodeW, p.AsTree().Edges)
		if err != nil {
			t.Fatalf("NewGraph: %v", err)
		}
		maxSide := p.TotalNodeWeight()*0.6 + p.MaxNodeWeight()
		res, err := Bipartition(g, maxSide, uint64(trial))
		if err != nil {
			t.Fatalf("Bipartition: %v", err)
		}
		// The exact algorithm under the same bound. (Bandwidth allows any
		// number of components; a 2-way split is a restriction, so exact
		// ≤ heuristic must hold.)
		exact := exactBandwidth(t, p, maxSide)
		if exact > res.CutWeight+1e-9 {
			t.Fatalf("exact %v worse than heuristic %v — impossible", exact, res.CutWeight)
		}
		if exact < res.CutWeight-1e-9 {
			strictly++
		}
	}
	t.Logf("exact strictly better on %d/40 instances", strictly)
}

func exactBandwidth(t *testing.T, p *graph.Path, k float64) float64 {
	t.Helper()
	// Avoid an import cycle with core by computing via the DP directly: the
	// linearize package re-exports nothing; use the simple quadratic check.
	n := p.Len()
	prefix := p.PrefixNodeWeights()
	const inf = math.MaxFloat64
	f := make([]float64, n)
	for i := 0; i < n-1; i++ {
		f[i] = inf
		for j := -1; j < i; j++ {
			if prefix[i+1]-prefix[j+1] > k {
				continue
			}
			prev := 0.0
			if j >= 0 {
				prev = f[j]
			}
			if prev < inf && prev+p.EdgeW[i] < f[i] {
				f[i] = prev + p.EdgeW[i]
			}
		}
	}
	best := inf
	if prefix[n] <= k {
		best = 0
	}
	for i := 0; i < n-1; i++ {
		if prefix[n]-prefix[i+1] <= k && f[i] < best {
			best = f[i]
		}
	}
	if best == inf {
		t.Fatal("exactBandwidth: infeasible")
	}
	return best
}

// Property: Bipartition always returns a balanced assignment with the cut
// weight it reports.
func TestBipartitionConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := workload.NewRNG(seed)
		n := 2 + r.Intn(40)
		tr := workload.RandomTree(r, n, workload.UniformWeights(1, 6), workload.UniformWeights(1, 9))
		g, err := graph.NewGraph(tr.NodeW, tr.Edges)
		if err != nil {
			return false
		}
		maxSide := g.TotalNodeWeight()*0.7 + 1
		for _, w := range g.NodeW {
			if w > maxSide {
				// Only possible at n = 2: no balanced assignment exists.
				_, err := Bipartition(g, maxSide, seed)
				return errors.Is(err, ErrBalance)
			}
		}
		res, err := Bipartition(g, maxSide, seed)
		if err != nil {
			return false
		}
		want, err := CutWeight(g, res.Side)
		if err != nil {
			return false
		}
		if math.Abs(want-res.CutWeight) > 1e-9 {
			return false
		}
		var sw [2]float64
		for v, s := range res.Side {
			if s != 0 && s != 1 {
				return false
			}
			sw[s] += g.NodeW[v]
		}
		return sw[0] <= maxSide+1e-9 && sw[1] <= maxSide+1e-9 &&
			math.Abs(sw[0]-res.SideWeights[0]) < 1e-9
	}
	// Inputs quick.Check has failed on, pinned so they run every time.
	for _, seed := range []uint64{
		// n = 3, weights 5.74/1.29/1.06, caps 6.66: {5.74} | {1.29, 1.06}
		// fits, but a random first fit can put 1.29 with 5.74.
		0x935bf941257f557,
		// n = 2 with one vertex heavier than the bound: ErrBalance.
		0x365ff4a521cbb618,
		0x34cdff08acb50720,
	} {
		if !f(seed) {
			t.Errorf("seed %#x: bipartition inconsistent or unbalanced", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Guard against regressions in linearize interop: banding an FM-partitioned
// graph still conserves weight (the two subsystems are used together in the
// experiments).
func TestFMAndLinearizeInterop(t *testing.T) {
	r := workload.NewRNG(21)
	tr := workload.RandomTree(r, 80, workload.UniformWeights(1, 5), workload.UniformWeights(1, 9))
	g, _ := graph.NewGraph(tr.NodeW, tr.Edges)
	b, err := linearize.BFSBands(g, 0)
	if err != nil {
		t.Fatalf("BFSBands: %v", err)
	}
	if math.Abs(b.Path.TotalNodeWeight()-g.TotalNodeWeight()) > 1e-9 {
		t.Error("banding lost weight")
	}
}
