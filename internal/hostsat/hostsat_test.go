package hostsat

import (
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// bruteSolve enumerates every family of disjoint offload subtrees (n ≤ ~12)
// and returns the minimal bottleneck with at most m satellites (m < 0 means
// unlimited).
func bruteSolve(t *testing.T, tr *graph.Tree, host, m int) float64 {
	t.Helper()
	in, err := prepare(tr, host)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	n := tr.Len()
	best := math.Inf(1)
	// ancestor[v][u]: u is a strict ancestor of v (towards host).
	isAncestor := func(u, v int) bool {
		for x := v; x != -1; x = int(in.rt.Parent[x]) {
			if x == u && x != v {
				return true
			}
		}
		return false
	}
	for mask := 0; mask < 1<<n; mask++ {
		if mask&(1<<host) != 0 {
			continue
		}
		var roots []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				roots = append(roots, v)
			}
		}
		if m >= 0 && len(roots) > m {
			continue
		}
		ok := true
		for _, u := range roots {
			for _, v := range roots {
				if u != v && isAncestor(u, v) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		p := in.buildPartition(roots)
		if p.Bottleneck < best {
			best = p.Bottleneck
		}
	}
	return best
}

func TestSolveHandCases(t *testing.T) {
	// Star: host 0 with three leaves of weight 10 and cheap edges.
	star, _ := graph.NewTree(
		[]float64{5, 10, 10, 10},
		[]graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 0, V: 3, W: 1}},
	)
	p, err := Solve(star, 0)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Offload two leaves (cost 11 each), keep one: host 15 — or offload all
	// three: host 5, bottleneck 11. The latter is optimal.
	if p.Bottleneck != 11 {
		t.Errorf("Bottleneck = %v (roots %v, host %v), want 11", p.Bottleneck, p.OffloadRoots, p.HostLoad)
	}
	if len(p.OffloadRoots) != 3 {
		t.Errorf("OffloadRoots = %v, want all three leaves", p.OffloadRoots)
	}

	// Expensive communication makes offloading pointless.
	farStar, _ := graph.NewTree(
		[]float64{5, 10, 10},
		[]graph.Edge{{U: 0, V: 1, W: 1000}, {U: 0, V: 2, W: 1000}},
	)
	p, err = Solve(farStar, 0)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if p.Bottleneck != 25 || len(p.OffloadRoots) != 0 {
		t.Errorf("Bottleneck = %v roots %v, want 25 with no offloads", p.Bottleneck, p.OffloadRoots)
	}
}

func TestSolveSingleVertex(t *testing.T) {
	tr, _ := graph.NewTree([]float64{7}, nil)
	p, err := Solve(tr, 0)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if p.Bottleneck != 7 || p.HostLoad != 7 {
		t.Errorf("partition = %+v", p)
	}
}

func TestSolveErrors(t *testing.T) {
	tr, _ := graph.NewTree([]float64{1, 2}, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := Solve(tr, 5); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad host: %v", err)
	}
	if _, err := SolveLimited(tr, 0, -1); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative m: %v", err)
	}
}

func TestSolveMatchesExactMatchesBrute(t *testing.T) {
	r := workload.NewRNG(88)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(10)
		tr := workload.RandomTree(r, n, workload.UniformWeights(1, 20), workload.UniformWeights(0, 15))
		host := r.Intn(n)
		want := bruteSolve(t, tr, host, -1)
		fast, err := Solve(tr, host)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		exact, err := SolveExact(tr, host)
		if err != nil {
			t.Fatalf("SolveExact: %v", err)
		}
		if math.Abs(exact.Bottleneck-want) > 1e-9 {
			t.Fatalf("SolveExact %v != brute %v\nnodeW=%v edges=%v host=%d",
				exact.Bottleneck, want, tr.NodeW, tr.Edges, host)
		}
		if math.Abs(fast.Bottleneck-want) > 1e-9 {
			t.Fatalf("Solve %v != brute %v\nnodeW=%v edges=%v host=%d",
				fast.Bottleneck, want, tr.NodeW, tr.Edges, host)
		}
	}
}

func TestSolveLimitedMatchesBrute(t *testing.T) {
	r := workload.NewRNG(99)
	for trial := 0; trial < 150; trial++ {
		n := 2 + r.Intn(9)
		tr := workload.RandomTree(r, n, workload.UniformWeights(1, 20), workload.UniformWeights(0, 15))
		host := r.Intn(n)
		m := r.Intn(4)
		want := bruteSolve(t, tr, host, m)
		got, err := SolveLimited(tr, host, m)
		if err != nil {
			t.Fatalf("SolveLimited: %v", err)
		}
		if len(got.OffloadRoots) > m {
			t.Fatalf("used %d satellites > m=%d", len(got.OffloadRoots), m)
		}
		if math.Abs(got.Bottleneck-want) > 1e-9 {
			t.Fatalf("SolveLimited %v != brute %v\nnodeW=%v edges=%v host=%d m=%d roots=%v",
				got.Bottleneck, want, tr.NodeW, tr.Edges, host, m, got.OffloadRoots)
		}
	}
}

func TestSolveLimitedConvergesToUnlimited(t *testing.T) {
	r := workload.NewRNG(111)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(15)
		tr := workload.RandomTree(r, n, workload.UniformWeights(1, 20), workload.UniformWeights(0, 5))
		unlimited, err := Solve(tr, 0)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		limited, err := SolveLimited(tr, 0, n)
		if err != nil {
			t.Fatalf("SolveLimited: %v", err)
		}
		if math.Abs(limited.Bottleneck-unlimited.Bottleneck) > 1e-9 {
			t.Fatalf("m=n limited %v != unlimited %v", limited.Bottleneck, unlimited.Bottleneck)
		}
		// Monotone in m: more satellites never hurt.
		prev := math.Inf(1)
		for m := 0; m <= 3; m++ {
			p, err := SolveLimited(tr, 0, m)
			if err != nil {
				t.Fatalf("SolveLimited(m=%d): %v", m, err)
			}
			if p.Bottleneck > prev+1e-9 {
				t.Fatalf("bottleneck increased with more satellites: m=%d %v > %v", m, p.Bottleneck, prev)
			}
			prev = p.Bottleneck
		}
	}
}

func TestPartitionInternallyConsistent(t *testing.T) {
	r := workload.NewRNG(123)
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(40)
		tr := workload.RandomTree(r, n, workload.UniformWeights(1, 10), workload.UniformWeights(0, 10))
		p, err := Solve(tr, 0)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		var off float64
		in, _ := prepare(tr, 0)
		for i, v := range p.OffloadRoots {
			off += in.subtreeW[v]
			if math.Abs(p.SatelliteCosts[i]-in.cost(v)) > 1e-9 {
				t.Fatalf("satellite cost mismatch at root %d", v)
			}
		}
		if math.Abs(p.HostLoad-(tr.TotalNodeWeight()-off)) > 1e-9 {
			t.Fatalf("host load %v != total-offloaded %v", p.HostLoad, tr.TotalNodeWeight()-off)
		}
	}
}
