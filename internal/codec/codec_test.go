package codec

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// equalGraphs compares two graphs by kind and element values, treating nil
// and empty slices as equal (the decoder materialises empty arrays where a
// constructor may have kept nil).
func equalGraphs(a, b any) bool {
	floats := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	edges := func(x, y []graph.Edge) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	switch av := a.(type) {
	case *graph.Path:
		bv, ok := b.(*graph.Path)
		return ok && floats(av.NodeW, bv.NodeW) && floats(av.EdgeW, bv.EdgeW)
	case *graph.Tree:
		bv, ok := b.(*graph.Tree)
		return ok && floats(av.NodeW, bv.NodeW) && edges(av.Edges, bv.Edges)
	case *graph.Graph:
		bv, ok := b.(*graph.Graph)
		return ok && floats(av.NodeW, bv.NodeW) && edges(av.Edges, bv.Edges)
	}
	return false
}

// fixtures returns one valid graph per kind plus edge-case shapes.
func fixtures(t *testing.T) map[string]any {
	t.Helper()
	p1, err := graph.NewPath([]float64{5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := graph.NewPath([]float64{1, 2.5, 0, 1e9}, []float64{3, 0, 0.125})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.NewTree([]float64{1, 2, 3, 4}, []graph.Edge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 0}, {U: 1, V: 3, W: 2.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.NewGraph([]float64{1, 2, 3}, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3}, {U: 0, V: 1, W: 4}, // parallel edge allowed
	})
	if err != nil {
		t.Fatal(err)
	}
	g0, err := graph.NewGraph([]float64{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]any{
		"path-single":    p1,
		"path":           p2,
		"tree":           tr,
		"graph":          g,
		"graph-no-edges": g0,
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for name, g := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			enc, err := Append(nil, g)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(enc), EncodedSize(g); got != want {
				t.Fatalf("encoded %d bytes, EncodedSize says %d", got, want)
			}
			if !Sniff(enc) {
				t.Fatal("Sniff rejects our own encoding")
			}
			dec, fp, rest, err := Decode(enc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d bytes left over", len(rest))
			}
			if !equalGraphs(dec, g) {
				t.Fatalf("decode(encode(g)) = %+v, want %+v", dec, g)
			}
			wantFP, err := graph.Fingerprint(g)
			if err != nil {
				t.Fatal(err)
			}
			if fp != wantFP {
				t.Fatalf("decode fingerprint %016x, graph.Fingerprint %016x", fp, wantFP)
			}
			// Re-encoding the decoded graph is byte-identical.
			enc2, err := Append(nil, dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatal("re-encoding is not byte-identical")
			}
		})
	}
}

func TestEncodeViaWriter(t *testing.T) {
	g := fixtures(t)["tree"]
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	dec, _, _, err := Decode(buf.Bytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, g) {
		t.Fatal("writer round trip mismatch")
	}
}

func TestDecodeLeavesRest(t *testing.T) {
	fx := fixtures(t)
	enc, err := Append(nil, fx["path"])
	if err != nil {
		t.Fatal(err)
	}
	enc, err = Append(enc, fx["tree"])
	if err != nil {
		t.Fatal(err)
	}
	first, _, rest, err := Decode(enc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := first.(*graph.Path); !ok {
		t.Fatalf("first graph is %T, want *graph.Path", first)
	}
	second, _, rest, err := Decode(rest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := second.(*graph.Tree); !ok {
		t.Fatalf("second graph is %T, want *graph.Tree", second)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after both graphs", len(rest))
	}
}

func TestDecodeMalformed(t *testing.T) {
	valid, err := Append(nil, mustPath(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad-magic", []byte("XXXX\x01\x01rest"), ErrBadMagic},
		{"magic-only", []byte("PGB1"), ErrTruncated},
		{"bad-version", []byte("PGB1\x07\x01\x02\x01"), ErrBadVersion},
		{"bad-kind", []byte("PGB1\x01\x09\x02\x01"), ErrBadKind},
		{"no-counts", []byte("PGB1\x01\x01"), ErrTruncated},
		{"truncated-payload", valid[:len(valid)-3], ErrTruncated},
		{"header-only", valid[:8], ErrTruncated},
		{"path-bad-edge-count", []byte("PGB1\x01\x01\x04\x04"), ErrCorrupt}, // path n=4 must have m=3
		{"tree-zero-nodes", []byte("PGB1\x01\x02\x00\x00"), ErrCorrupt},
		{"graph-zero-nodes", []byte("PGB1\x01\x03\x00\x05"), ErrCorrupt},
		{"huge-count", append([]byte("PGB1\x01\x01"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00), ErrTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := Decode(tc.data, Options{})
			if !errors.Is(err, tc.want) {
				t.Fatalf("got error %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsInvalidWeights(t *testing.T) {
	// Hand-build a 2-node path with a NaN edge weight: structural decode
	// succeeds, graph validation must reject it without panicking.
	data := []byte("PGB1\x01\x01\x02\x01")
	var le = func(f float64) []byte {
		b := make([]byte, 8)
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			b[i] = byte(bits >> (8 * i))
		}
		return b
	}
	data = append(data, le(1)...)
	data = append(data, le(2)...)
	data = append(data, le(math.NaN())...)
	if _, _, _, err := Decode(data, Options{}); !errors.Is(err, graph.ErrBadWeight) {
		t.Fatalf("got %v, want ErrBadWeight", err)
	}
	// Negative weight.
	data = data[:len(data)-8]
	data = append(data, le(-1)...)
	if _, _, _, err := Decode(data, Options{}); !errors.Is(err, graph.ErrBadWeight) {
		t.Fatalf("got %v, want ErrBadWeight", err)
	}
}

func TestDecodeRejectsNonTree(t *testing.T) {
	// A "tree" whose edge list closes a cycle must fail tree validation.
	g, err := graph.NewGraph([]float64{1, 2, 3}, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Append(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	enc[5] = KindTree // rewrite kind: now it declares a valid 3-node tree shape
	if _, _, _, err := Decode(enc, Options{}); err != nil {
		t.Fatalf("valid tree shape should decode, got %v", err)
	}
	// Self-loop variant: build the struct directly (NewGraph would reject
	// it) so the bad structure reaches the tree validator via the wire.
	loopy := &graph.Graph{NodeW: []float64{1, 2, 3}, Edges: []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 2, W: 1}}}
	bad, err := Append(nil, loopy)
	if err != nil {
		t.Fatal(err)
	}
	bad[5] = KindTree
	if _, _, _, err := Decode(bad, Options{}); !errors.Is(err, graph.ErrNotTree) {
		t.Fatalf("got %v, want ErrNotTree", err)
	}
}

func TestMaxNodesCheckedBeforeAllocation(t *testing.T) {
	enc, err := Append(nil, mustPath(t, 1024))
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Decode(enc, Options{MaxNodes: 512})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	if _, _, _, err := Decode(enc, Options{MaxNodes: 1024}); err != nil {
		t.Fatalf("limit == size should pass, got %v", err)
	}
	// A declared count far beyond the actual payload is rejected as
	// truncated before any allocation, even with no MaxNodes set.
	huge := appendHeader(nil, KindPath, 1<<30, 1<<30-1)
	if _, _, _, err := Decode(huge, Options{}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}

func mustPath(t testing.TB, n int) *graph.Path {
	t.Helper()
	nodeW := make([]float64, n)
	edgeW := make([]float64, n-1)
	for i := range nodeW {
		nodeW[i] = float64(i%97 + 1)
	}
	for i := range edgeW {
		edgeW[i] = float64(i%31 + 1)
	}
	p, err := graph.NewPath(nodeW, edgeW)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustTree(t testing.TB, n int) *graph.Tree {
	t.Helper()
	nodeW := make([]float64, n)
	edges := make([]graph.Edge, n-1)
	for i := range nodeW {
		nodeW[i] = float64(i%97 + 1)
	}
	for i := range edges {
		edges[i] = graph.Edge{U: i / 3, V: i + 1, W: float64(i%31 + 1)}
	}
	tr, err := graph.NewTree(nodeW, edges)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestBinaryDecodeAllocBudget pins the allocation budget of the binary
// decode path: decoding a 4096-node path must stay within a handful of
// allocations total — the graph header and its arrays, none per element.
// CI runs this as the wire-format smoke.
func TestBinaryDecodeAllocBudget(t *testing.T) {
	enc, err := Append(nil, mustPath(t, 4096))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 8
	avg := testing.AllocsPerRun(100, func() {
		if _, _, _, err := Decode(enc, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("binary decode of a 4096-node path allocates %.1f/op, budget %d", avg, budget)
	}
}

// TestBinaryTreeDecodeAllocBudget is TestBinaryDecodeAllocBudget for a
// 4096-node tree: its node weights, its edges and the header.
func TestBinaryTreeDecodeAllocBudget(t *testing.T) {
	enc, err := Append(nil, mustTree(t, 4096))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 8
	avg := testing.AllocsPerRun(100, func() {
		if _, _, _, err := Decode(enc, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("binary decode of a 4096-node tree allocates %.1f/op, budget %d", avg, budget)
	}
}

func TestEncodeRejectsOverflowingEndpoints(t *testing.T) {
	g := &graph.Graph{NodeW: []float64{1, 2}, Edges: []graph.Edge{{U: 0, V: int(math.MaxUint32) + 1, W: 1}}}
	if _, err := Append(nil, g); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if _, err := Append(nil, struct{}{}); err == nil {
		t.Fatal("Append accepted an unsupported type")
	}
}

// BenchmarkDecodePath20k decodes and fingerprints a 20k-node PGB1 path.
func BenchmarkDecodePath20k(b *testing.B) {
	enc, err := Append(nil, mustPath(b, 20000))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Decode(enc, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeTree5k decodes and fingerprints a 5k-node PGB1 tree.
func BenchmarkDecodeTree5k(b *testing.B) {
	enc, err := Append(nil, mustTree(b, 5000))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Decode(enc, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendPath20k prices re-encoding a forwarded 20k-node path
// (encode) against copying its PGB1 bytes as they arrived (copy), the
// most a forward that passed the request's bytes through could save.
func BenchmarkAppendPath20k(b *testing.B) {
	p := mustPath(b, 20000)
	enc, err := Append(nil, p)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, len(enc))
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			dst, _ = Append(dst[:0], p)
		}
	})
	b.Run("copy", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			dst = append(dst[:0], enc...)
		}
	})
}

// mapStore is a graph.Store over a map, freezing what it keeps.
type mapStore map[uint64]any

func (s mapStore) Get(fp uint64) any { return s[fp] }

func (s mapStore) Put(fp uint64, g any) {
	switch g := g.(type) {
	case *graph.Path:
		g.Freeze()
	case *graph.Tree:
		g.Freeze()
	}
	s[fp] = g
}

// GetText and PutText complete graph.Store; binary frames have no text key.
func (s mapStore) GetText(uint64, []byte, int) (any, graph.TextEntry) { return nil, graph.TextEntry{} }
func (s mapStore) PutText(graph.TextEntry)                            {}

// TestDecodeStore: with a store, a second decode of a path or tree frame
// returns the stored graph with the same fingerprint and rest, as does a
// frame that differs only in the sign of a zero weight; general graphs and
// frames that fail are not stored.
func TestDecodeStore(t *testing.T) {
	st := mapStore{}
	opt := Options{Store: st}
	p, tr := mustPath(t, 300), mustTree(t, 300)
	p.NodeW[5], tr.Edges[6].W = 0, 0
	pz, tz := p.Clone(), tr.Clone()
	pz.NodeW[5], tz.Edges[6].W = math.Copysign(0, -1), math.Copysign(0, -1)
	for _, gs := range [][2]any{{p, pz}, {tr, tz}} {
		a, err := Append(nil, gs[0])
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Append(nil, gs[1])
		g1, fp1, rest1, err := Decode(append(a, 9), opt)
		if err != nil {
			t.Fatal(err)
		}
		g2, fp2, rest2, err := Decode(append(b, 9), opt)
		if err != nil || g1 != g2 || fp1 != fp2 || len(rest1) != 1 || len(rest2) != 1 {
			t.Fatalf("%T: second decode %p/%016x, first %p/%016x (%v)", gs[0], g2, fp2, g1, fp1, err)
		}
		if fp, _ := graph.Fingerprint(gs[0]); fp != fp1 {
			t.Fatalf("%T: fingerprint %016x, want %016x", gs[0], fp1, fp)
		}
	}
	gen, err := graph.NewGraph([]float64{1, 2}, []graph.Edge{{U: 0, V: 1, W: 3}})
	if err != nil {
		t.Fatal(err)
	}
	bad := p.Clone()
	bad.NodeW[1] = -1
	for _, g := range []any{gen, bad} {
		b, _ := Append(nil, g)
		if _, _, _, err := Decode(b, opt); (err != nil) != (g == bad) {
			t.Fatalf("%T: %v", g, err)
		}
	}
	if len(st) != 2 {
		t.Fatalf("%d graphs stored, want 2", len(st))
	}
}
