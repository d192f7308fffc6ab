package graph

import (
	"errors"
	"reflect"
	"testing"
)

func mustTree(t *testing.T, nodeW []float64, edges []Edge) *Tree {
	t.Helper()
	tr, err := NewTree(nodeW, edges)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	return tr
}

// star5 is a star with centre 0 and four leaves.
func star5(t *testing.T) *Tree {
	return mustTree(t, []float64{1, 2, 3, 4, 5}, []Edge{
		{0, 1, 10}, {0, 2, 20}, {0, 3, 30}, {0, 4, 40},
	})
}

func TestNewTreeValidation(t *testing.T) {
	tests := []struct {
		name    string
		nodeW   []float64
		edges   []Edge
		wantErr error
	}{
		{"single node", []float64{1}, nil, nil},
		{"two nodes", []float64{1, 2}, []Edge{{0, 1, 1}}, nil},
		{"empty", nil, nil, ErrEmptyGraph},
		{"too few edges", []float64{1, 2, 3}, []Edge{{0, 1, 1}}, ErrBadShape},
		{"too many edges", []float64{1, 2}, []Edge{{0, 1, 1}, {1, 0, 1}}, ErrBadShape},
		{"cycle", []float64{1, 2, 3}, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}}, ErrBadShape},
		{"self loop", []float64{1, 2}, []Edge{{0, 0, 1}}, ErrNotTree},
		{"disconnected duplicate edge", []float64{1, 2, 3}, []Edge{{0, 1, 1}, {1, 0, 2}}, ErrNotTree},
		{"endpoint out of range", []float64{1, 2}, []Edge{{0, 2, 1}}, ErrBadShape},
		{"negative edge", []float64{1, 2}, []Edge{{0, 1, -1}}, ErrBadWeight},
		{"negative node", []float64{-1, 2}, []Edge{{0, 1, 1}}, ErrBadWeight},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewTree(tt.nodeW, tt.edges)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("NewTree() error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestTreeAdjacency(t *testing.T) {
	tr := mustTree(t, []float64{1, 1, 1, 1}, []Edge{{0, 1, 1}, {1, 2, 2}, {1, 3, 3}})
	adj := tr.Adjacency()
	if len(adj[1]) != 3 {
		t.Fatalf("deg(1) = %d, want 3", len(adj[1]))
	}
	want0 := []Arc{{To: 1, Edge: 0}}
	if !reflect.DeepEqual(adj[0], want0) {
		t.Errorf("adj[0] = %v, want %v", adj[0], want0)
	}
}

func TestTreeComponents(t *testing.T) {
	// A small caterpillar: 0-1-2 spine, leaves 3 (on 0) and 4 (on 2).
	tr := mustTree(t, []float64{1, 2, 4, 8, 16}, []Edge{
		{0, 1, 1}, {1, 2, 2}, {0, 3, 3}, {2, 4, 4},
	})
	tests := []struct {
		name  string
		cut   []int
		comps [][]int
		ws    []float64
	}{
		{"no cut", nil, [][]int{{0, 1, 2, 3, 4}}, []float64{31}},
		{"cut spine", []int{1}, [][]int{{0, 1, 3}, {2, 4}}, []float64{11, 20}},
		{"cut leaves", []int{2, 3}, [][]int{{0, 1, 2}, {3}, {4}}, []float64{7, 8, 16}},
		{"cut all", []int{0, 1, 2, 3}, [][]int{{0}, {1}, {2}, {3}, {4}}, []float64{1, 2, 4, 8, 16}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			comps, err := tr.Components(tt.cut)
			if err != nil {
				t.Fatalf("Components: %v", err)
			}
			if !reflect.DeepEqual(comps, tt.comps) {
				t.Errorf("Components = %v, want %v", comps, tt.comps)
			}
			// ComponentWeights orders by discovery, so compare as multisets
			// via sums per component from Components.
			ws, err := tr.ComponentWeights(tt.cut)
			if err != nil {
				t.Fatalf("ComponentWeights: %v", err)
			}
			if SumWeights(ws) != tr.TotalNodeWeight() {
				t.Errorf("ComponentWeights sum = %v, want %v", SumWeights(ws), tr.TotalNodeWeight())
			}
			if len(ws) != len(tt.ws) {
				t.Errorf("len(ComponentWeights) = %d, want %d", len(ws), len(tt.ws))
			}
		})
	}
}

func TestTreeCutWeightAndBottleneck(t *testing.T) {
	tr := star5(t)
	w, err := tr.CutWeight([]int{0, 3})
	if err != nil {
		t.Fatalf("CutWeight: %v", err)
	}
	if w != 50 {
		t.Errorf("CutWeight = %v, want 50", w)
	}
	m, err := tr.MaxCutEdgeWeight([]int{0, 3})
	if err != nil {
		t.Fatalf("MaxCutEdgeWeight: %v", err)
	}
	if m != 40 {
		t.Errorf("MaxCutEdgeWeight = %v, want 40", m)
	}
	if _, err := tr.CutWeight([]int{7}); !errors.Is(err, ErrBadCut) {
		t.Errorf("CutWeight(out of range) error = %v, want ErrBadCut", err)
	}
}

func TestTreeContract(t *testing.T) {
	// Path 0-1-2-3 as tree; cut the middle edge.
	tr := mustTree(t, []float64{1, 2, 4, 8}, []Edge{{0, 1, 10}, {1, 2, 20}, {2, 3, 30}})
	c, err := tr.Contract([]int{1})
	if err != nil {
		t.Fatalf("Contract: %v", err)
	}
	if c.Tree.Len() != 2 {
		t.Fatalf("contracted Len = %d, want 2", c.Tree.Len())
	}
	gotW := append([]float64(nil), c.Tree.NodeW...)
	if SumWeights(gotW) != 15 {
		t.Errorf("contracted weights %v sum to %v, want 15", gotW, SumWeights(gotW))
	}
	if len(c.Tree.Edges) != 1 || c.Tree.Edges[0].W != 20 {
		t.Errorf("contracted edges = %v, want single edge of weight 20", c.Tree.Edges)
	}
	if !reflect.DeepEqual(c.CutEdges, []int{1}) {
		t.Errorf("CutEdges = %v, want [1]", c.CutEdges)
	}
	if !reflect.DeepEqual(c.Tree.NodeW, []float64{3, 12}) {
		t.Errorf("super-node weights = %v, want [3 12] in smallest-vertex order", c.Tree.NodeW)
	}
}

func TestTreeContractEmptyCut(t *testing.T) {
	tr := star5(t)
	c, err := tr.Contract(nil)
	if err != nil {
		t.Fatalf("Contract(nil): %v", err)
	}
	if c.Tree.Len() != 1 {
		t.Errorf("contract with empty cut should give single super-node, got %d", c.Tree.Len())
	}
	if c.Tree.NodeW[0] != tr.TotalNodeWeight() {
		t.Errorf("super-node weight = %v, want %v", c.Tree.NodeW[0], tr.TotalNodeWeight())
	}
}

func TestTreeIsStar(t *testing.T) {
	tests := []struct {
		name string
		tr   *Tree
		want bool
	}{
		{"star5", star5(t), true},
		{"single", mustTree(t, []float64{1}, nil), true},
		{"pair", mustTree(t, []float64{1, 2}, []Edge{{0, 1, 1}}), true},
		{"path4", mustTree(t, []float64{1, 1, 1, 1}, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}), false},
		{"path3 is star", mustTree(t, []float64{1, 1, 1}, []Edge{{0, 1, 1}, {1, 2, 1}}), true},
	}
	for _, tt := range tests {
		if got := tt.tr.IsStar(); got != tt.want {
			t.Errorf("%s: IsStar() = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestTreeDegrees(t *testing.T) {
	tr := star5(t)
	want := []int{4, 1, 1, 1, 1}
	if got := tr.Degrees(); !reflect.DeepEqual(got, want) {
		t.Errorf("Degrees() = %v, want %v", got, want)
	}
}

func TestPathTreeComponentAgreement(t *testing.T) {
	// Components computed via the Path API and via the Tree API must agree
	// in weight for the same cut.
	p := mustPath(t, []float64{3, 1, 4, 1, 5, 9, 2, 6}, []float64{1, 2, 3, 4, 5, 6, 7})
	tr := p.AsTree()
	for _, cut := range [][]int{nil, {0}, {3}, {6}, {0, 3, 6}, {1, 2, 3, 4}} {
		pw, err := p.ComponentWeights(cut)
		if err != nil {
			t.Fatalf("path ComponentWeights(%v): %v", cut, err)
		}
		tw, err := tr.ComponentWeights(cut)
		if err != nil {
			t.Fatalf("tree ComponentWeights(%v): %v", cut, err)
		}
		if !reflect.DeepEqual(pw, tw) {
			t.Errorf("cut %v: path weights %v != tree weights %v", cut, pw, tw)
		}
	}
}

func TestTreeSmallAccessors(t *testing.T) {
	tr := star5(t)
	if tr.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", tr.NumEdges())
	}
	if tr.MaxNodeWeight() != 5 {
		t.Errorf("MaxNodeWeight = %v, want 5", tr.MaxNodeWeight())
	}
	c := tr.Clone()
	c.NodeW[0] = 99
	c.Edges[0].W = 99
	if tr.NodeW[0] == 99 || tr.Edges[0].W == 99 {
		t.Error("Clone shares storage")
	}
	m, err := tr.MaxComponentWeight([]int{0})
	if err != nil {
		t.Fatalf("MaxComponentWeight: %v", err)
	}
	if m != 13 { // {0,2,3,4} = 1+3+4+5
		t.Errorf("MaxComponentWeight = %v, want 13", m)
	}
}
