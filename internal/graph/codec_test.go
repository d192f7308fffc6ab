package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestPathCodecRoundTrip(t *testing.T) {
	p := mustPath(t, []float64{1.5, 2, 3.25}, []float64{0.5, 7})
	var buf bytes.Buffer
	if err := WritePath(&buf, p); err != nil {
		t.Fatalf("WritePath: %v", err)
	}
	got, err := ReadPath(&buf)
	if err != nil {
		t.Fatalf("ReadPath: %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip = %+v, want %+v", got, p)
	}
}

func TestTreeCodecRoundTrip(t *testing.T) {
	tr := mustTree(t, []float64{1, 2, 3, 4}, []Edge{{0, 1, 0.5}, {1, 2, 1.5}, {1, 3, 2.5}})
	var buf bytes.Buffer
	if err := WriteTree(&buf, tr); err != nil {
		t.Fatalf("WriteTree: %v", err)
	}
	got, err := ReadTree(&buf)
	if err != nil {
		t.Fatalf("ReadTree: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip = %+v, want %+v", got, tr)
	}
}

func TestGraphCodecRoundTrip(t *testing.T) {
	want, err := NewGraph([]float64{1, 2, 3}, []Edge{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}})
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	any, err := ReadAny(strings.NewReader("graph 3 3\n1 2 3\n0 1 1\n1 2 2\n0 2 3\n"))
	if err != nil {
		t.Fatalf("ReadAny: %v", err)
	}
	got, ok := any.(*Graph)
	if !ok {
		t.Fatalf("ReadAny returned %T, want *Graph", any)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read %+v, want %+v", got, want)
	}
}

func TestReadPathCommentsAndWhitespace(t *testing.T) {
	in := `# a pipeline
path 3
  1 2   # node weights continue
  3
  10 20 # edges
`
	p, err := ReadPath(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadPath: %v", err)
	}
	if !reflect.DeepEqual(p.NodeW, []float64{1, 2, 3}) {
		t.Errorf("NodeW = %v", p.NodeW)
	}
	if !reflect.DeepEqual(p.EdgeW, []float64{10, 20}) {
		t.Errorf("EdgeW = %v", p.EdgeW)
	}
}

func TestReadErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want error
	}{
		{"empty input", "", io.EOF},
		{"unknown kind", "blob 3\n", ErrBadFormat},
		{"wrong kind for ReadPath", "tree 1\n1\n", ErrBadFormat},
		{"bad count", "path x\n", ErrBadFormat},
		{"negative count", "path -1\n", ErrBadFormat},
		{"truncated weights", "path 3\n1 2\n", io.EOF},
		{"bad float", "path 2\n1 zebra\n3\n", ErrBadFormat},
		{"invalid weight", "path 2\n1 -5\n3\n", ErrBadWeight},
		{"tree cycle", "tree 3\n1 1 1\n0 1 1\n1 0 1\n", ErrNotTree},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var err error
			if strings.HasPrefix(tt.in, "tree") || tt.name == "wrong kind for ReadPath" {
				_, err = ReadPath(strings.NewReader(tt.in))
				if tt.name == "tree cycle" {
					_, err = ReadTree(strings.NewReader(tt.in))
				}
			} else {
				_, err = ReadAny(strings.NewReader(tt.in))
			}
			if !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestDOTOutput(t *testing.T) {
	tr := mustTree(t, []float64{1, 2}, []Edge{{0, 1, 5}})
	var buf bytes.Buffer
	if err := TreeDOT(&buf, tr, []int{0}); err != nil {
		t.Fatalf("TreeDOT: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"graph task {", "n0 -- n1", "style=dashed", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	p := mustPath(t, []float64{1, 2, 3}, []float64{1, 2})
	if err := PathDOT(&buf, p, nil); err != nil {
		t.Fatalf("PathDOT: %v", err)
	}
	if !strings.Contains(buf.String(), "n1 -- n2") {
		t.Errorf("PathDOT output missing edge:\n%s", buf.String())
	}
}

func TestGraphMergeParallel(t *testing.T) {
	g, err := NewGraph([]float64{1, 1, 1}, []Edge{{0, 1, 1}, {1, 0, 2}, {1, 2, 3}})
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	m := g.MergeParallel()
	want := []Edge{{0, 1, 3}, {1, 2, 3}}
	if !reflect.DeepEqual(m.Edges, want) {
		t.Errorf("MergeParallel edges = %v, want %v", m.Edges, want)
	}
}

func TestGraphIsConnected(t *testing.T) {
	conn, _ := NewGraph([]float64{1, 1, 1}, []Edge{{0, 1, 1}, {1, 2, 1}})
	if !conn.IsConnected() {
		t.Error("connected graph reported disconnected")
	}
	disc, _ := NewGraph([]float64{1, 1, 1}, []Edge{{0, 1, 1}})
	if disc.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestGraphIsPathOrder(t *testing.T) {
	g, _ := NewGraph([]float64{1, 2, 3}, []Edge{{1, 0, 5}, {1, 2, 7}})
	p, ok := g.IsPathOrder()
	if !ok {
		t.Fatal("IsPathOrder = false, want true")
	}
	if !reflect.DeepEqual(p.EdgeW, []float64{5, 7}) {
		t.Errorf("EdgeW = %v, want [5 7]", p.EdgeW)
	}
	notPath, _ := NewGraph([]float64{1, 2, 3}, []Edge{{0, 2, 1}, {1, 2, 1}})
	if _, ok := notPath.IsPathOrder(); ok {
		t.Error("IsPathOrder = true for non-index-order path")
	}
}

func TestPathMaxNodeWeight(t *testing.T) {
	p := mustPath(t, []float64{3, 9, 1}, []float64{1, 1})
	if p.MaxNodeWeight() != 9 {
		t.Errorf("MaxNodeWeight = %v, want 9", p.MaxNodeWeight())
	}
}

func TestGeneralGraphAccessors(t *testing.T) {
	g, err := NewGraph([]float64{1, 2, 3}, []Edge{{0, 1, 4}, {1, 2, 6}})
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	if g.TotalNodeWeight() != 6 {
		t.Errorf("TotalNodeWeight = %v, want 6", g.TotalNodeWeight())
	}
	if g.TotalEdgeWeight() != 10 {
		t.Errorf("TotalEdgeWeight = %v, want 10", g.TotalEdgeWeight())
	}
	adj := g.Adjacency()
	if len(adj[1]) != 2 || adj[1][0].To != 0 {
		t.Errorf("Adjacency = %v", adj)
	}
}

func TestGeneralGraphValidateErrors(t *testing.T) {
	cases := []struct {
		nodeW []float64
		edges []Edge
		want  error
	}{
		{nil, nil, ErrEmptyGraph},
		{[]float64{-1}, nil, ErrBadWeight},
		{[]float64{1, 2}, []Edge{{0, 5, 1}}, ErrBadShape},
		{[]float64{1, 2}, []Edge{{0, 0, 1}}, ErrBadShape},
		{[]float64{1, 2}, []Edge{{0, 1, -1}}, ErrBadWeight},
	}
	for i, c := range cases {
		if _, err := NewGraph(c.nodeW, c.edges); !errors.Is(err, c.want) {
			t.Errorf("case %d: error = %v, want %v", i, err, c.want)
		}
	}
}

func TestReadTreeAndGraphBadCounts(t *testing.T) {
	if _, err := ReadTree(strings.NewReader("tree 0\n")); !errors.Is(err, ErrBadFormat) {
		t.Errorf("tree size 0: %v", err)
	}
	if _, err := ReadAny(strings.NewReader("graph 2 -1\n1 1\n")); !errors.Is(err, ErrBadFormat) {
		t.Errorf("graph negative edges: %v", err)
	}
	if _, err := ReadAny(strings.NewReader("graph 2 1\n1 1\n0 1 x\n")); !errors.Is(err, ErrBadFormat) {
		t.Errorf("graph bad edge weight: %v", err)
	}
}

// TestReadHugeCount reads headers whose counts the input cannot back: the
// reader fails with ErrBadFormat without allocating for the count.
func TestReadHugeCount(t *testing.T) {
	for _, in := range []string{
		"path 99999999999999\n", "path 4000000000\n1 2 3\n", "tree 4000000000\n1\n",
		"graph 2 4000000000\n1 1\n0 1 1\n", "tree 3\n1 1 1\n0 1\n",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadAny(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%q: error %v, want ErrBadFormat", in, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%q: allocated %d bytes", in, n)
		}
	}
}

// FuzzReadText never panics on arbitrary input, and a graph it accepts
// writes back and re-reads to the same fingerprint.
func FuzzReadText(f *testing.F) {
	for _, s := range []string{
		"path 3\n1 2 3\n4 5\n", "tree 3\n1 1 1\n0 1 1\n1 2 1\n", "graph 2 1\n1 1\n0 1 1\n",
		"# comment\npath 1\n2.5 # weight\n", "path 99999999999999\n", "tree 2\n1 1\n0 5 1\n",
		"path 2\n1 NaN\n3\n", "path 2\n-0 1e-320\n1e308\n", "graph 1 0\n1\n", "blob 3\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadAny(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		switch v := g.(type) {
		case *Path:
			err = WritePath(&buf, v)
		case *Tree:
			err = WriteTree(&buf, v)
		case *Graph:
			fmt.Fprintf(&buf, "graph %d %d\n", v.Len(), len(v.Edges))
			writeFloats(&buf, v.NodeW)
			for _, e := range v.Edges {
				fmt.Fprintf(&buf, "%d %d %s\n", e.U, e.V, formatWeight(e.W))
			}
		}
		if err != nil {
			t.Fatalf("writing %T: %v", g, err)
		}
		back, err := ReadAny(&buf)
		if err != nil {
			t.Fatalf("re-reading %q: %v", buf.Bytes(), err)
		}
		want, err := Fingerprint(g)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Fingerprint(back); err != nil || got != want {
			t.Fatalf("fingerprint %#x after a round trip, want %#x (%v)", got, want, err)
		}
	})
}
