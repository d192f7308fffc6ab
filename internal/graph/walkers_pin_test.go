package graph_test

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hostsat"
	"repro/internal/treecut"
	"repro/internal/verify/oracle"
	"repro/internal/workload"
)

var updateWalkers = flag.Bool("update", false, "rewrite testdata/walkers.txt from the tree walkers' current output")

// TestTreeWalkersPinned runs every solver that walks a rooted tree from the
// leaves up (the core tree solvers, treecut's exact, branch-and-bound and
// greedy cutters, hostsat's Solve, SolveExact and SolveLimited, and the
// oracles MaxPartsOver, SumOfMaxDP and MinComponentsTree) over seeded random
// recursive trees, stars, caterpillars and d-ary trees, and compares every
// output (floats as float64 bits) and every error message against
// testdata/walkers.txt. Half the seeds relabel the vertices, shuffle the
// edge list and flip edge endpoints, so that edge order differs from BFS
// order and the generator's root is not vertex 0; hosts range over all
// vertices. Half the seeds use small integer weights, zeros included, so
// that ties decide the DP and sort orders.
func TestTreeWalkersPinned(t *testing.T) {
	var b strings.Builder
	for seed := uint64(0); seed < 300; seed++ {
		pinWalkers(&b, seed)
	}
	got := b.String()
	path := filepath.Join("testdata", "walkers.txt")
	if *updateWalkers {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}

func pinWalkers(b *strings.Builder, seed uint64) {
	r := workload.NewRNG(seed)
	ints := seed%2 == 0
	var nodeW, edgeW workload.Weights
	if ints {
		nodeW, edgeW = workload.UniformWeights(0, 6), workload.UniformWeights(0, 4)
	} else {
		nodeW, edgeW = workload.UniformWeights(0.5, 20), workload.UniformWeights(0.1, 10)
	}
	// One seed in five is larger: past branch and bound's 24-edge limit.
	n := 1 + r.Intn(16)
	if seed%5 == 4 {
		n = 25 + r.Intn(40)
	}
	var tr *graph.Tree
	var shape string
	switch seed / 2 % 4 {
	case 0:
		shape, tr = "random", workload.RandomTree(r, n, nodeW, edgeW)
	case 1:
		shape, tr = "star", workload.Star(r, n, nodeW, edgeW)
	case 2:
		spine := 1 + r.Intn(max(1, n/3))
		shape, tr = "caterpillar", workload.Caterpillar(r, spine, (n-spine)/spine, nodeW, edgeW)
	default:
		shape, tr = "dary", workload.DaryTree(r, n, 2+r.Intn(3), nodeW, edgeW)
	}
	n = tr.Len()
	if ints {
		for i := range tr.NodeW {
			tr.NodeW[i] = math.Floor(tr.NodeW[i])
		}
		for i := range tr.Edges {
			tr.Edges[i].W = math.Floor(tr.Edges[i].W)
		}
	}
	shuffled := seed/8%2 == 1
	if shuffled {
		relabel := r.Perm(n)
		nw := make([]float64, n)
		for v, w := range tr.NodeW {
			nw[relabel[v]] = w
		}
		edges := make([]graph.Edge, len(tr.Edges))
		for i, j := range r.Perm(len(tr.Edges)) {
			e := tr.Edges[j]
			u, v := relabel[e.U], relabel[e.V]
			if r.Intn(2) == 0 {
				u, v = v, u
			}
			edges[i] = graph.Edge{U: u, V: v, W: e.W}
		}
		tr = &graph.Tree{NodeW: nw, Edges: edges}
	}
	if err := tr.Validate(); err != nil {
		panic(fmt.Sprintf("seed %d: generated tree invalid: %v", seed, err))
	}
	total, maxW := tr.TotalNodeWeight(), tr.MaxNodeWeight()
	// k spans [maxW, total]; one seed in eight asks for less than maxW.
	k := maxW + r.Float64()*(total-maxW)
	if ints {
		k = math.Ceil(k)
	}
	if r.Intn(8) == 0 {
		k = maxW / 2
	}
	parts := 1 + r.Intn(n)
	host := r.Intn(n)
	m := r.Intn(4)
	bnd := r.Float64() * total
	fmt.Fprintf(b, "seed %d %s n=%d shuffled=%v k=%s parts=%d host=%d m=%d b=%s\n",
		seed, shape, n, shuffled, bits(k), parts, host, m, bits(bnd))
	fmt.Fprintf(b, "  edges %v\n", tr.Edges)

	ctx := context.Background()
	pinPartition(b, "core.MinProcessors", k)(core.MinProcessors(ctx, tr, k))
	pinPartition(b, "core.PartitionTree", k)(core.PartitionTree(ctx, tr, k))
	pinPartition(b, "core.MaxMinTree", float64(parts))(core.MaxMinTree(ctx, tr, parts))
	pinPartition(b, "core.SumOfMaxTree", float64(parts))(core.SumOfMaxTree(ctx, tr, parts))

	kInt := int(k)
	if float64(kInt) != k {
		kInt = int(math.Ceil(k))
	}
	pinCut(b, "treecut.Exact")(treecut.TreeBandwidthExact(ctx, tr, kInt))
	pinCut(b, "treecut.BB")(treecut.TreeBandwidthBB(ctx, tr, k))
	pinCut(b, "treecut.Greedy")(treecut.TreeBandwidthGreedy(ctx, tr, k))

	hp, err := hostsat.Solve(tr, host)
	pinHost(b, "hostsat.Solve", hp, err)
	hp, err = hostsat.SolveExact(tr, host)
	pinHost(b, "hostsat.SolveExact", hp, err)
	hp, err = hostsat.SolveLimited(tr, host, m)
	pinHost(b, "hostsat.SolveLimited", hp, err)

	cnt, err := oracle.MaxPartsOver(tr, bnd)
	fmt.Fprintf(b, "  oracle.MaxPartsOver %d err=%v\n", cnt, err)
	sm, err := oracle.SumOfMaxDP(tr, parts)
	fmt.Fprintf(b, "  oracle.SumOfMaxDP %s err=%v\n", bits(sm), err)
	comps, cut, err := oracle.MinComponentsTree(tr, k)
	fmt.Fprintf(b, "  oracle.MinComponentsTree %d %v err=%v\n", comps, cut, err)
}

func pinPartition(b *strings.Builder, name string, k float64) func(*core.Partition, int64, error) {
	return func(p *core.Partition, iters int64, err error) {
		if err != nil {
			fmt.Fprintf(b, "  %s iters=%d err %s\n", name, iters, err)
			return
		}
		ws := make([]string, len(p.ComponentWeights))
		for i, w := range p.ComponentWeights {
			ws[i] = bits(w)
		}
		fmt.Fprintf(b, "  %s iters=%d cut=%v weight=%s bottleneck=%s k=%v comps=%v\n",
			name, iters, p.Cut, bits(p.CutWeight), bits(p.Bottleneck), p.K == k, ws)
	}
}

func pinCut(b *strings.Builder, name string) func(*treecut.CutResult, int64, error) {
	return func(res *treecut.CutResult, iters int64, err error) {
		if err != nil {
			fmt.Fprintf(b, "  %s iters=%d err %s\n", name, iters, err)
			return
		}
		fmt.Fprintf(b, "  %s iters=%d cut=%v weight=%s\n", name, iters, res.Cut, bits(res.Weight))
	}
}

func pinHost(b *strings.Builder, name string, p *hostsat.Partition, err error) {
	if err != nil {
		fmt.Fprintf(b, "  %s err %s\n", name, err)
		return
	}
	cs := make([]string, len(p.SatelliteCosts))
	for i, c := range p.SatelliteCosts {
		cs[i] = bits(c)
	}
	fmt.Fprintf(b, "  %s roots=%v costs=%v host=%s bottleneck=%s\n",
		name, p.OffloadRoots, cs, bits(p.HostLoad), bits(p.Bottleneck))
}

// bits prints f exactly: its IEEE-754 bit pattern next to a readable value.
func bits(f float64) string { return fmt.Sprintf("%016x(%g)", math.Float64bits(f), f) }
