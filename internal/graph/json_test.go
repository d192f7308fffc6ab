package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jsonscan"
)

func TestJSONPathRoundTrip(t *testing.T) {
	p := mustPath(t, []float64{1.5, 2, 3}, []float64{0.25, 7})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, p); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"kind":"path"`) {
		t.Errorf("missing kind: %s", buf.String())
	}
	got, err := DecodeJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeJSON: %v", err)
	}
	if gp, ok := got.(*Path); !ok || !reflect.DeepEqual(gp, p) {
		t.Errorf("round trip = %+v (%T), want %+v", got, got, p)
	}
}

func TestJSONTreeRoundTrip(t *testing.T) {
	tr := mustTree(t, []float64{1, 2, 3}, []Edge{{0, 1, 4}, {1, 2, 5}})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := DecodeJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeJSON: %v", err)
	}
	if gt, ok := got.(*Tree); !ok || !reflect.DeepEqual(gt, tr) {
		t.Errorf("round trip = %+v (%T), want %+v", got, got, tr)
	}
}

func TestJSONGraphRoundTrip(t *testing.T) {
	g, err := NewGraph([]float64{1, 1, 1}, []Edge{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}})
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	any, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	got, ok := any.(*Graph)
	if !ok || !reflect.DeepEqual(got, g) {
		t.Errorf("round trip = %+v (%T), want %+v", any, any, g)
	}
}

func TestJSONErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, 42); !errors.Is(err, ErrBadFormat) {
		t.Errorf("encode int: %v", err)
	}
	if _, err := ReadJSON(strings.NewReader(`{"kind":"blob"}`)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("unknown kind: %v", err)
	}
	if _, err := ReadJSON(strings.NewReader(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Validation still applies.
	if _, err := ReadJSON(strings.NewReader(`{"kind":"path","nodeWeights":[1,-2],"edgeWeights":[1]}`)); !errors.Is(err, ErrBadWeight) {
		t.Errorf("invalid weight: %v", err)
	}
}

// refReadJSON is the encoding/json decoder DecodeJSON replaced, kept as the
// reference FuzzReadJSON holds the one-pass decoder to. It decodes with
// json.Unmarshal, which, like DecodeJSON, rejects trailing bytes.
func refReadJSON(data []byte) (any, error) {
	var env jsonGraph
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("decoding graph JSON: %w", err)
	}
	edges := make([]Edge, len(env.Edges))
	for i, e := range env.Edges {
		edges[i] = Edge{U: e.U, V: e.V, W: e.W}
	}
	switch env.Kind {
	case "path":
		return NewPath(env.NodeWeights, env.EdgeWeights)
	case "tree":
		return NewTree(env.NodeWeights, edges)
	case "graph":
		return NewGraph(env.NodeWeights, edges)
	default:
		return nil, fmt.Errorf("unknown graph kind %q: %w", env.Kind, ErrBadFormat)
	}
}

// sameBits reports whether two weight slices hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameEdges(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].U != b[i].U || a[i].V != b[i].V || math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
			return false
		}
	}
	return true
}

// sameGraph reports whether two decoded graphs are of one kind with
// bit-identical arrays.
func sameGraph(a, b any) bool {
	switch x := a.(type) {
	case *Path:
		y, ok := b.(*Path)
		return ok && sameBits(x.NodeW, y.NodeW) && sameBits(x.EdgeW, y.EdgeW)
	case *Tree:
		y, ok := b.(*Tree)
		return ok && sameBits(x.NodeW, y.NodeW) && sameEdges(x.Edges, y.Edges)
	case *Graph:
		y, ok := b.(*Graph)
		return ok && sameBits(x.NodeW, y.NodeW) && sameEdges(x.Edges, y.Edges)
	}
	return false
}

// jsonEdgeCases are envelopes at the edges of the JSON grammar and of
// encoding/json's decoding rules, seeding FuzzReadJSON (so plain go test
// checks each).
var jsonEdgeCases = []string{
	`{"kind":"path","nodeWeights":[1,2,3],"edgeWeights":[10,20]}`,
	`{"kind":"tree","nodeWeights":[1,2,3],"edges":[{"u":0,"v":1,"w":5},{"u":1,"v":2,"w":0.5}]}`,
	`{"kind":"graph","nodeWeights":[1,1,1],"edges":[{"u":0,"v":1,"w":1},{"u":1,"v":2,"w":2},{"u":0,"v":2,"w":3}]}`,
	" \n{\"kind\":\"path\",\"nodeWeights\":[1],\"edgeWeights\":[]}\r\n\t",
	`{"KIND":"path","NodeWeights":[1,2],"EDGEWEIGHTS":[3]}`,
	"{\"Kind\":\"path\",\"nodeWeights\":[1,2],\"edgeWeights\":[3]}",
	`{"kind":"tree","nodeWeights":[1,2],"edges":[{"U":0,"V":1,"W":5}]}`,
	`{"kind":"path","nodeWeights":[1,2],"edgeWeights":[3]}`,
	`{"kind":"path","nodeWeights":[1,2],"edgeWeights":[3],"kind":"tree","edges":[{"u":0,"v":1}]}`,
	`{"kind":"path","nodeWeights":[1,2,3],"nodeWeights":[4,null],"edgeWeights":[3]}`,
	`{"kind":"path","nodeWeights":[1,2,3],"nodeWeights":[4],"nodeWeights":[null,null,null],"edgeWeights":[1,2]}`,
	`{"kind":"path","nodeWeights":[1,2,3],"nodeWeights":[],"nodeWeights":[null,null],"edgeWeights":[1]}`,
	`{"kind":"tree","nodeWeights":[1,2,3],"edges":[{"u":0,"v":1,"w":5},{"u":1,"v":2,"w":6}],"edges":[{"w":7},null]}`,
	`{"kind":"path","nodeWeights":null,"edgeWeights":null}`,
	`{"kind":null,"nodeWeights":[1],"edgeWeights":[]}`,
	`{"kind":"path","kind":null,"nodeWeights":[1],"edgeWeights":[]}`,
	`{"kind":"path","nodeWeights":[1,2],"edgeWeights":[3],"extra":{"a":[1,{"b":null}],"c":"𝄞"}}`,
	`{"kind":"path","nodeWeights":[1,2],"edgeWeights":[3],"extra":[1e400]}`,
	`{"kind":"path","nodeWeights":[1e400],"edgeWeights":[]}`,
	`{"kind":"path","nodeWeights":[1e-400],"edgeWeights":[]}`,
	`{"kind":"path","nodeWeights":[-0],"edgeWeights":[]}`,
	`{"kind":"path","nodeWeights":[-0.0e+0],"edgeWeights":[]}`,
	`{"kind":"path","nodeWeights":[01],"edgeWeights":[]}`,
	`{"kind":"path","nodeWeights":[NaN],"edgeWeights":[]}`,
	`{"kind":"path","nodeWeights":[Infinity],"edgeWeights":[]}`,
	`{"kind":"path","nodeWeights":[0x1p3],"edgeWeights":[]}`,
	`{"kind":"path","nodeWeights":[1.],"edgeWeights":[]}`,
	`{"kind":"path","nodeWeights":[.5],"edgeWeights":[]}`,
	`{"kind":"path","nodeWeights":[1e],"edgeWeights":[]}`,
	`{"kind":"path","nodeWeights":["1"],"edgeWeights":[]}`,
	`{"kind":"tree","nodeWeights":[1,2],"edges":[{"u":1.0,"v":0,"w":1}]}`,
	`{"kind":"tree","nodeWeights":[1,2],"edges":[{"u":1e0,"v":0,"w":1}]}`,
	`{"kind":"tree","nodeWeights":[1,2],"edges":[{"u":99999999999999999999,"v":0,"w":1}]}`,
	`{"kind":"tree","nodeWeights":[1,2],"edges":[{"u":-0,"v":1,"w":1}]}`,
	`{"kind":"path","nodeWeights":[1],"edgeWeights":[]}garbage`,
	`{"kind":"path","nodeWeights":[1],"edgeWeights":[]}{}`,
	`{"kind":"path","nodeWeights":[1,],"edgeWeights":[]}`,
	`{"kind":"path",}`,
	`{"kind":"path" "nodeWeights":[1]}`,
	`{"kind":5}`,
	`{"kind":"path","nodeWeights":{},"edgeWeights":[]}`,
	`{"kind":"tree","nodeWeights":[1],"edges":[[]]}`,
	`{"kind":"\u00zz"}`,
	"{\"kind\":\"pa\x01th\"}",
	"{\"kind\":\"\xff\"}",
	`{"kind":"path","nodeWeights":[1],"edgeWeights":[],"x":tru}`,
	`null`,
	`[]`,
	`"path"`,
	``,
	`{`,
}

// checkAgainstReference requires DecodeJSON and ReadJSON to agree with the
// reference: the same accept/reject outcome, and bit-identical graphs when
// accepted.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodeJSON(data)
	want, werr := refReadJSON(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%q: DecodeJSON error %v, encoding/json error %v", data, err, werr)
	}
	if err == nil && !sameGraph(got, want) {
		t.Fatalf("%q: DecodeJSON = %+v, encoding/json = %+v", data, got, want)
	}
	rd, rerr := ReadJSON(bytes.NewReader(data))
	if (rerr == nil) != (err == nil) || err == nil && !sameGraph(rd, got) {
		t.Fatalf("%q: ReadJSON (%v) disagrees with DecodeJSON (%v)", data, rerr, err)
	}
}

// FuzzReadJSON holds the one-pass decoder to encoding/json on arbitrary
// input: the same accept/reject outcome, and bit-identical graphs.
func FuzzReadJSON(f *testing.F) {
	for _, c := range jsonEdgeCases {
		f.Add([]byte(c))
	}
	for _, g := range []any{
		&Path{NodeW: []float64{1.5, 2, 3e-7}, EdgeW: []float64{0.25, 7}},
		&Tree{NodeW: []float64{1, 2, 3, 4}, Edges: []Edge{{0, 1, 4}, {1, 2, 5}, {1, 3, 0.1}}},
	} {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(checkAgainstReference)
}

// TestScanJSONNodeLimit stops at the first node weight over the limit.
func TestScanJSONNodeLimit(t *testing.T) {
	doc := []byte(`{"kind":"path","nodeWeights":[1,2,3,4,x`)
	sc := jsonscan.NewScanner(doc)
	if _, _, err := ScanJSON(sc, 3); !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("4 nodes over a limit of 3: %v, want ErrTooManyNodes", err)
	}
	if _, _, err := ScanJSON(jsonscan.NewScanner(doc[:len(doc)-3]), 4); errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("4 nodes at a limit of 4: %v", err)
	}
}
