package graph

import (
	"sort"
	"testing"
)

// csrToAdj reconstructs [][]Arc from a CSR view for comparison.
func csrToAdj(c CSR, n int) [][]Arc {
	adj := make([][]Arc, n)
	for v := 0; v < n; v++ {
		lo, hi := c.Arcs(v)
		for a := lo; a < hi; a++ {
			adj[v] = append(adj[v], Arc{To: int(c.To[a]), Edge: int(c.EIdx[a])})
		}
	}
	return adj
}

func sortArcs(as []Arc) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].To != as[j].To {
			return as[i].To < as[j].To
		}
		return as[i].Edge < as[j].Edge
	})
}

func TestBuildCSRMatchesAdjacency(t *testing.T) {
	trees := []*Tree{
		{NodeW: []float64{1}, Edges: nil},
		{NodeW: []float64{1, 2}, Edges: []Edge{{U: 0, V: 1, W: 5}}},
		{NodeW: []float64{1, 2, 3, 4, 5}, Edges: []Edge{
			{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 1, V: 3, W: 3}, {U: 3, V: 4, W: 4},
		}},
		// Star: high-degree centre exercises the counting sort.
		{NodeW: []float64{1, 1, 1, 1, 1, 1}, Edges: []Edge{
			{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 2}, {U: 0, V: 3, W: 3}, {U: 0, V: 4, W: 4}, {U: 0, V: 5, W: 5},
		}},
	}
	for _, tr := range trees {
		if err := tr.Validate(); err != nil {
			t.Fatalf("fixture invalid: %v", err)
		}
		csr, _ := tr.BuildCSR(nil)
		if got, want := len(csr.Off), tr.Len()+1; got != want {
			t.Fatalf("Off length %d, want %d", got, want)
		}
		if got, want := int(csr.Off[tr.Len()]), 2*tr.NumEdges(); got != want {
			t.Fatalf("Off[n] = %d, want %d", got, want)
		}
		want := tr.Adjacency()
		got := csrToAdj(csr, tr.Len())
		for v := range want {
			sortArcs(want[v])
			sortArcs(got[v])
			if len(want[v]) != len(got[v]) {
				t.Fatalf("vertex %d: %d arcs, want %d", v, len(got[v]), len(want[v]))
			}
			for i := range want[v] {
				if want[v][i] != got[v][i] {
					t.Fatalf("vertex %d arc %d: got %+v, want %+v", v, i, got[v][i], want[v][i])
				}
			}
		}
	}
}

func TestBuildCSRReusesBuffer(t *testing.T) {
	tr := &Tree{NodeW: []float64{1, 2, 3}, Edges: []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}}}
	_, buf := tr.BuildCSR(nil)
	csr2, buf2 := tr.BuildCSR(buf)
	if &buf[0] != &buf2[0] {
		t.Fatal("second build did not reuse the buffer")
	}
	if int(csr2.Off[3]) != 4 {
		t.Fatalf("Off[n] = %d, want 4", csr2.Off[3])
	}
	// A too-small buffer grows rather than panicking.
	big := &Tree{NodeW: []float64{1, 2, 3, 4, 5, 6, 7, 8}, Edges: []Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 1},
		{U: 4, V: 5, W: 1}, {U: 5, V: 6, W: 1}, {U: 6, V: 7, W: 1},
	}}
	csr3, _ := big.BuildCSR(buf2[:2])
	if int(csr3.Off[8]) != 14 {
		t.Fatalf("grown build Off[n] = %d, want 14", csr3.Off[8])
	}
}

func TestHasherMatchesBatchFingerprints(t *testing.T) {
	p := &Path{NodeW: []float64{1, 2.5, 0}, EdgeW: []float64{3, 0}}
	h := NewPathHasher()
	h.Word(uint64(len(p.NodeW)))
	for _, w := range p.NodeW {
		h.Weight(w)
	}
	h.Word(uint64(len(p.EdgeW)))
	for _, w := range p.EdgeW {
		h.Weight(w)
	}
	if got, want := h.Sum(), FingerprintPath(p); got != want {
		t.Fatalf("path hasher %016x != FingerprintPath %016x", got, want)
	}

	tr := &Tree{NodeW: []float64{1, 2, 3}, Edges: []Edge{{U: 0, V: 1, W: 4}, {U: 1, V: 2, W: 5}}}
	th := NewTreeHasher()
	th.Word(uint64(len(tr.NodeW)))
	for _, w := range tr.NodeW {
		th.Weight(w)
	}
	th.Word(uint64(len(tr.Edges)))
	for _, e := range tr.Edges {
		th.Word(uint64(e.U))
		th.Word(uint64(e.V))
		th.Weight(e.W)
	}
	if got, want := th.Sum(), FingerprintTree(tr); got != want {
		t.Fatalf("tree hasher %016x != FingerprintTree %016x", got, want)
	}

	g := &Graph{NodeW: tr.NodeW, Edges: tr.Edges}
	gh := NewGraphHasher()
	gh.Word(uint64(len(g.NodeW)))
	for _, w := range g.NodeW {
		gh.Weight(w)
	}
	gh.Word(uint64(len(g.Edges)))
	for _, e := range g.Edges {
		gh.Word(uint64(e.U))
		gh.Word(uint64(e.V))
		gh.Weight(e.W)
	}
	if got, want := gh.Sum(), FingerprintGraph(g); got != want {
		t.Fatalf("graph hasher %016x != FingerprintGraph %016x", got, want)
	}
	if FingerprintTree(tr) == FingerprintGraph(g) {
		t.Fatal("tree and graph with identical columns must fingerprint differently")
	}
}

func TestOwnedConstructorsValidateWithoutCopy(t *testing.T) {
	nodeW := []float64{1, 2}
	edgeW := []float64{3}
	p, err := NewPathOwned(nodeW, edgeW)
	if err != nil {
		t.Fatal(err)
	}
	if &p.NodeW[0] != &nodeW[0] || &p.EdgeW[0] != &edgeW[0] {
		t.Fatal("NewPathOwned copied its arguments")
	}
	if _, err := NewPathOwned([]float64{1, -2}, []float64{3}); err == nil {
		t.Fatal("NewPathOwned accepted a negative weight")
	}
	edges := []Edge{{U: 0, V: 1, W: 3}}
	tr, err := NewTreeOwned(nodeW, edges)
	if err != nil {
		t.Fatal(err)
	}
	if &tr.Edges[0] != &edges[0] {
		t.Fatal("NewTreeOwned copied its edges")
	}
	if _, err := NewTreeOwned(nodeW, []Edge{{U: 0, V: 0, W: 1}}); err == nil {
		t.Fatal("NewTreeOwned accepted a self-loop")
	}
	g, err := NewGraphOwned(nodeW, edges)
	if err != nil {
		t.Fatal(err)
	}
	if &g.NodeW[0] != &nodeW[0] {
		t.Fatal("NewGraphOwned copied its node weights")
	}
}

func TestPrefixNodeWeightsInto(t *testing.T) {
	p := &Path{NodeW: []float64{1, 2, 3}, EdgeW: []float64{1, 1}}
	buf := make([]float64, 0, 8)
	got := p.PrefixNodeWeightsInto(buf)
	want := p.PrefixNodeWeights()
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefix[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("PrefixNodeWeightsInto did not reuse the buffer")
	}
}

func TestRootColumns(t *testing.T) {
	// 3 is the root; edge order differs from BFS order and endpoints are
	// flipped, so Order follows the CSR arcs, not the edge list.
	tr := &Tree{NodeW: []float64{1, 1, 1, 1, 1}, Edges: []Edge{
		{U: 4, V: 1, W: 1}, {U: 0, V: 3, W: 1}, {U: 3, V: 1, W: 1}, {U: 2, V: 0, W: 1},
	}}
	rt, buf := tr.Root(3, nil)
	check := func(name string, got, want []int32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", name, got, want)
			}
		}
	}
	check("Order", rt.Order, []int32{3, 0, 1, 2, 4})
	check("Parent", rt.Parent, []int32{3, 3, 0, -1, 1})
	check("ParentEdge", rt.ParentEdge, []int32{1, 2, 3, -1, 0})
	// Rooting again in the returned buffer reuses it and overwrites every
	// column, stale parents included.
	rt2, buf2 := tr.Root(4, buf)
	if &buf[0] != &buf2[0] {
		t.Fatal("second Root did not reuse the buffer")
	}
	check("Order", rt2.Order, []int32{4, 1, 3, 0, 2})
	check("Parent", rt2.Parent, []int32{3, 4, 0, 1, -1})
	check("ParentEdge", rt2.ParentEdge, []int32{1, 0, 3, 2, -1})
}
