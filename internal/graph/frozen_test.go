package graph

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/jsonscan"
)

// lcgTree is a random recursive tree on n vertices with weights in [1, 100),
// some of them -0 when negZero is set.
func lcgTree(n int, seed uint64, negZero bool) *Tree {
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / (1 << 53)
	}
	w := func() float64 {
		if v := next(); negZero && v < 0.15 {
			return math.Copysign(0, -1)
		}
		return 1 + 99*next()
	}
	t := &Tree{NodeW: make([]float64, n), Edges: make([]Edge, n-1)}
	for v := range t.NodeW {
		t.NodeW[v] = w()
	}
	for i := range t.Edges {
		t.Edges[i] = Edge{U: int(next() * float64(i+1)), V: i + 1, W: w()}
	}
	return t
}

// TestFrozenTreeRoot0: a frozen tree's Validate trusts it, and Root0 hands
// every caller, concurrent ones included, the one view Root(0, nil) builds,
// leaving the caller's buffer alone. An unfrozen tree's Root0 is Root(0, buf).
func TestFrozenTreeRoot0(t *testing.T) {
	tr := lcgTree(500, 1, false)
	want, _ := tr.Root(0, nil)
	buf := make([]int32, 0, 8)
	rt, got := tr.Root0(buf)
	if tr.Frozen() || cap(got) == cap(buf) || !slices.Equal(rt.Order, want.Order) {
		t.Fatal("an unfrozen tree's Root0 is not Root(0, buf)")
	}

	tr.Freeze()
	tr.Edges[0].U = tr.Edges[0].V // a self-loop the frozen tree no longer checks for
	if err := tr.Validate(); err != nil || !tr.Frozen() {
		t.Fatalf("frozen tree: Validate = %v, Frozen = %t", err, tr.Frozen())
	}
	tr.Edges[0] = lcgTree(500, 1, false).Edges[0]
	views := make([]Rooted, 8)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b []int32
			views[i], b = tr.Root0(buf)
			if cap(b) != cap(buf) {
				t.Error("Root0 on a frozen tree returned another buffer")
			}
		}()
	}
	wg.Wait()
	for _, v := range views {
		if &v.Order[0] != &views[0].Order[0] || !slices.Equal(v.Parent, want.Parent) ||
			!slices.Equal(v.ParentEdge, want.ParentEdge) || !slices.Equal(v.To, want.To) {
			t.Fatal("frozen tree: Root0 views differ")
		}
	}
	if c := tr.Clone(); c.Frozen() {
		t.Fatal("the clone of a frozen tree is frozen")
	}
	if n, m := 500, 499; tr.Footprint() != 8*n+24*m+4*(n+1+4*m+3*n)+4*m {
		t.Fatalf("Footprint = %d", tr.Footprint())
	}
}

// TestFrozenTreeSortedEdges: a frozen tree's SortedEdges hands every
// caller, concurrent ones included, one order, equal to the order the
// unfrozen tree builds in its scratch or, given none, in its own, with −0
// tying +0.
func TestFrozenTreeSortedEdges(t *testing.T) {
	tr := lcgTree(500, 3, true)
	var bk EdgeBuckets
	order := tr.SortedEdges(&bk)
	if own := tr.SortedEdges(nil); !slices.Equal(own, order) || &own[0] == &order[0] {
		t.Fatal("unfrozen tree: SortedEdges(nil) differs from SortedEdges(&bk) or shares its array")
	}
	for i := 1; i < len(order); i++ {
		a, b := tr.Edges[order[i-1]].W, tr.Edges[order[i]].W
		if a > b || a == b && order[i-1] > order[i] {
			t.Fatalf("order[%d:%d] = edges %d (w=%v), %d (w=%v)", i-1, i+1, order[i-1], a, order[i], b)
		}
	}
	tr.Freeze()
	orders := make([][]int32, 8)
	var wg sync.WaitGroup
	for i := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			orders[i] = tr.SortedEdges(nil)
		}()
	}
	wg.Wait()
	for _, o := range orders {
		if &o[0] != &orders[0][0] || !slices.Equal(o, order) {
			t.Fatal("frozen tree: SortedEdges orders differ")
		}
	}
}

// TestFrozenPath: a frozen path's Validate trusts it; its Clone is checked.
func TestFrozenPath(t *testing.T) {
	p, err := NewPath([]float64{1, 2, 3}, []float64{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	p.Freeze()
	p.NodeW[1] = -1
	if p.Validate() != nil || p.Clone().Validate() == nil || p.Clone().Frozen() {
		t.Fatal("a frozen path checked itself, or its clone did not")
	}
	if p.Footprint() != 40 {
		t.Fatalf("Footprint = %d, want 40", p.Footprint())
	}
}

// packEdges lays edges out as the PGB1 codec does: u32, u32, f64.
func packEdges(es []Edge) []byte {
	var b []byte
	for _, e := range es {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.V))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.W))
	}
	return b
}

// TestByteHashersMatchFill: WeightBytes and EdgeRecords fold what the Fill
// constructors fold, at every stripe alignment and with -0 weights.
func TestByteHashersMatchFill(t *testing.T) {
	for n := 1; n <= 40; n++ {
		tr := lcgTree(n, uint64(n), true)
		nodeW := leWords(bitsOf(tr.NodeW)...)
		_, want, err := FillTree(nodeW, slices.Clone(tr.Edges))
		if err != nil {
			t.Fatal(err)
		}
		h := NewTreeHasher()
		h.Word(uint64(n))
		h.WeightBytes(nodeW)
		h.Word(uint64(n - 1))
		h.EdgeRecords(packEdges(tr.Edges))
		if got := h.Sum(); got != want || fingerprintTree(tr.NodeW, tr.Edges) != want {
			t.Fatalf("n=%d tree: byte hash %016x, want %016x", n, got, want)
		}
		edgeW := make([]float64, n-1)
		for i, e := range tr.Edges {
			edgeW[i] = e.W
		}
		_, want, err = FillPath(nodeW, leWords(bitsOf(edgeW)...))
		if err != nil {
			t.Fatal(err)
		}
		h = NewPathHasher()
		h.Word(uint64(n))
		h.WeightBytes(nodeW)
		h.Word(uint64(n - 1))
		h.WeightBytes(leWords(bitsOf(edgeW)...))
		if got := h.Sum(); got != want {
			t.Fatalf("n=%d path: byte hash %016x, want %016x", n, got, want)
		}
	}
}

// mapStore is a Store over maps, freezing what it keeps.
type mapStore struct {
	m          map[uint64]any
	texts      map[uint64]TextEntry
	gets, puts int
}

func (s *mapStore) Get(fp uint64) any {
	s.gets++
	return s.m[fp]
}

func (s *mapStore) Put(fp uint64, g any) {
	s.puts++
	switch g := g.(type) {
	case *Path:
		g.Freeze()
	case *Tree:
		g.Freeze()
	}
	s.m[fp] = g
}

func (s *mapStore) GetText(prefix uint64, doc []byte, depth int) (any, TextEntry) {
	e, ok := s.texts[prefix]
	if !ok || !e.Matches(doc, depth) {
		return nil, TextEntry{}
	}
	return s.m[e.FP], e
}

func (s *mapStore) PutText(e TextEntry) {
	if s.texts == nil {
		s.texts = map[uint64]TextEntry{}
	}
	s.texts[e.Prefix] = e
}

// TestScanJSONStore: a second decode of a path or tree returns the stored
// graph, also for a document that differs only in the sign of a zero; a
// general graph is not looked up, and a bad graph fails as it does without
// a store and is not stored.
func TestScanJSONStore(t *testing.T) {
	st := &mapStore{m: map[uint64]any{}}
	scan := func(doc string) (any, error) {
		g, _, err := ScanJSON(jsonscan.NewScanner([]byte(doc)), 0, st)
		return g, err
	}
	for _, docs := range [][2]string{
		{`{"kind":"path","nodeWeights":[1,0,3],"edgeWeights":[4,5]}`, `{"kind":"path","nodeWeights":[1,-0,3],"edgeWeights":[4,5]}`},
		{`{"kind":"tree","nodeWeights":[1,2],"edges":[{"u":0,"v":1,"w":0}]}`, `{"edges":[{"u":0,"v":1,"w":-0}],"nodeWeights":[1,2],"kind":"tree"}`},
	} {
		a, err := scan(docs[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := scan(docs[1])
		if err != nil || a != b {
			t.Fatalf("%s: second decode %p, first %p (%v)", docs[1], b, a, err)
		}
	}
	if st.gets != 4 || st.puts != 2 {
		t.Fatalf("%d gets and %d puts, want 4 and 2", st.gets, st.puts)
	}
	if _, err := scan(`{"kind":"graph","nodeWeights":[1,2],"edges":[]}`); err != nil || st.gets != 4 {
		t.Fatalf("general graph: %v, %d gets", err, st.gets)
	}
	bad := `{"kind":"path","nodeWeights":[1,-2],"edgeWeights":[1]}`
	_, werr := DecodeJSON([]byte(bad))
	if _, err := scan(bad); err == nil || err.Error() != werr.Error() || len(st.m) != 2 {
		t.Fatalf("bad path: %v, want %v, and nothing stored", err, werr)
	}
}
