package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func mustPath(t *testing.T, nodeW, edgeW []float64) *Path {
	t.Helper()
	p, err := NewPath(nodeW, edgeW)
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	return p
}

func TestNewPathValidation(t *testing.T) {
	tests := []struct {
		name    string
		nodeW   []float64
		edgeW   []float64
		wantErr error
	}{
		{"single node", []float64{1}, nil, nil},
		{"two nodes", []float64{1, 2}, []float64{3}, nil},
		{"zero weights ok", []float64{0, 0}, []float64{0}, nil},
		{"empty", nil, nil, ErrEmptyGraph},
		{"edge count mismatch", []float64{1, 2}, []float64{1, 2}, ErrBadShape},
		{"missing edges", []float64{1, 2, 3}, []float64{1}, ErrBadShape},
		{"negative node weight", []float64{1, -2}, []float64{1}, ErrBadWeight},
		{"negative edge weight", []float64{1, 2}, []float64{-1}, ErrBadWeight},
		{"nan node weight", []float64{math.NaN(), 2}, []float64{1}, ErrBadWeight},
		{"inf edge weight", []float64{1, 2}, []float64{math.Inf(1)}, ErrBadWeight},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewPath(tt.nodeW, tt.edgeW)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("NewPath() error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewPathCopiesInputs(t *testing.T) {
	nodeW := []float64{1, 2, 3}
	edgeW := []float64{4, 5}
	p := mustPath(t, nodeW, edgeW)
	nodeW[0] = 99
	edgeW[0] = 99
	if p.NodeW[0] != 1 || p.EdgeW[0] != 4 {
		t.Errorf("NewPath did not copy inputs: %v %v", p.NodeW, p.EdgeW)
	}
}

func TestPathLenAndNumEdges(t *testing.T) {
	p := mustPath(t, []float64{1, 2, 3, 4}, []float64{1, 2, 3})
	if p.Len() != 4 {
		t.Errorf("Len() = %d, want 4", p.Len())
	}
	if p.NumEdges() != 3 {
		t.Errorf("NumEdges() = %d, want 3", p.NumEdges())
	}
	empty := &Path{}
	if empty.NumEdges() != 0 {
		t.Errorf("empty NumEdges() = %d, want 0", empty.NumEdges())
	}
}

func TestPathPrefixNodeWeights(t *testing.T) {
	p := mustPath(t, []float64{1, 2, 3}, []float64{10, 20})
	got := p.PrefixNodeWeights()
	want := []float64{0, 1, 3, 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PrefixNodeWeights() = %v, want %v", got, want)
	}
}

func TestPathComponents(t *testing.T) {
	p := mustPath(t, []float64{1, 2, 3, 4, 5}, []float64{10, 20, 30, 40})
	tests := []struct {
		name      string
		cut       []int
		wantComps [][2]int
		wantW     []float64
	}{
		{"no cut", nil, [][2]int{{0, 4}}, []float64{15}},
		{"single cut", []int{1}, [][2]int{{0, 1}, {2, 4}}, []float64{3, 12}},
		{"all cut", []int{0, 1, 2, 3}, [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}}, []float64{1, 2, 3, 4, 5}},
		{"ends", []int{0, 3}, [][2]int{{0, 0}, {1, 3}, {4, 4}}, []float64{1, 9, 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			comps, err := p.Components(tt.cut)
			if err != nil {
				t.Fatalf("Components: %v", err)
			}
			if !reflect.DeepEqual(comps, tt.wantComps) {
				t.Errorf("Components = %v, want %v", comps, tt.wantComps)
			}
			ws, err := p.ComponentWeights(tt.cut)
			if err != nil {
				t.Fatalf("ComponentWeights: %v", err)
			}
			if !reflect.DeepEqual(ws, tt.wantW) {
				t.Errorf("ComponentWeights = %v, want %v", ws, tt.wantW)
			}
		})
	}
}

func TestPathComponentsBadCut(t *testing.T) {
	p := mustPath(t, []float64{1, 2, 3}, []float64{1, 2})
	for _, cut := range [][]int{{-1}, {2}, {0, 0}, {1, 0}} {
		if _, err := p.Components(cut); !errors.Is(err, ErrBadCut) {
			t.Errorf("Components(%v) error = %v, want ErrBadCut", cut, err)
		}
	}
}

func TestPathCutWeight(t *testing.T) {
	p := mustPath(t, []float64{1, 1, 1, 1}, []float64{5, 7, 9})
	w, err := p.CutWeight([]int{0, 2})
	if err != nil {
		t.Fatalf("CutWeight: %v", err)
	}
	if w != 14 {
		t.Errorf("CutWeight = %v, want 14", w)
	}
	m, err := p.MaxCutEdgeWeight([]int{0, 2})
	if err != nil {
		t.Fatalf("MaxCutEdgeWeight: %v", err)
	}
	if m != 9 {
		t.Errorf("MaxCutEdgeWeight = %v, want 9", m)
	}
	if m, _ := p.MaxCutEdgeWeight(nil); m != 0 {
		t.Errorf("MaxCutEdgeWeight(nil) = %v, want 0", m)
	}
}

func TestPathMaxComponentWeight(t *testing.T) {
	p := mustPath(t, []float64{4, 1, 1, 6}, []float64{1, 1, 1})
	got, err := p.MaxComponentWeight([]int{0})
	if err != nil {
		t.Fatalf("MaxComponentWeight: %v", err)
	}
	if got != 8 {
		t.Errorf("MaxComponentWeight = %v, want 8", got)
	}
}

func TestPathAsTree(t *testing.T) {
	p := mustPath(t, []float64{1, 2, 3}, []float64{10, 20})
	tr := p.AsTree()
	if err := tr.Validate(); err != nil {
		t.Fatalf("AsTree().Validate(): %v", err)
	}
	if !reflect.DeepEqual(tr.NodeW, p.NodeW) {
		t.Errorf("AsTree NodeW = %v, want %v", tr.NodeW, p.NodeW)
	}
	want := []Edge{{0, 1, 10}, {1, 2, 20}}
	if !reflect.DeepEqual(tr.Edges, want) {
		t.Errorf("AsTree Edges = %v, want %v", tr.Edges, want)
	}
}

func TestPathClone(t *testing.T) {
	p := mustPath(t, []float64{1, 2}, []float64{3})
	c := p.Clone()
	c.NodeW[0] = 42
	c.EdgeW[0] = 42
	if p.NodeW[0] != 1 || p.EdgeW[0] != 3 {
		t.Error("Clone shares storage with original")
	}
}

func TestNormalizeCut(t *testing.T) {
	tests := []struct {
		in   []int
		want []int
	}{
		{nil, nil},
		{[]int{3, 1, 2}, []int{1, 2, 3}},
		{[]int{1, 1, 1}, []int{1}},
		{[]int{5, 3, 5, 3}, []int{3, 5}},
	}
	for _, tt := range tests {
		if got := NormalizeCut(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("NormalizeCut(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// Property: component weights always sum to the total node weight, for any
// valid cut.
func TestPathComponentWeightsSumProperty(t *testing.T) {
	f := func(raw []uint8, cutBits uint16) bool {
		n := len(raw)%20 + 2
		nodeW := make([]float64, n)
		for i := range nodeW {
			if i < len(raw) {
				nodeW[i] = float64(raw[i])
			} else {
				nodeW[i] = 1
			}
		}
		edgeW := make([]float64, n-1)
		for i := range edgeW {
			edgeW[i] = 1
		}
		p, err := NewPath(nodeW, edgeW)
		if err != nil {
			return false
		}
		var cut []int
		for i := 0; i < n-1 && i < 16; i++ {
			if cutBits&(1<<i) != 0 {
				cut = append(cut, i)
			}
		}
		ws, err := p.ComponentWeights(cut)
		if err != nil {
			return false
		}
		return math.Abs(SumWeights(ws)-p.TotalNodeWeight()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCutSummaryMatchesParts: CutSummary returns what CutWeight,
// MaxCutEdgeWeight and a Components-based component sum return, bit for
// bit, and the same error for a bad cut.
func TestCutSummaryMatchesParts(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.IntN(40)
		nodeW := make([]float64, n)
		for i := range nodeW {
			nodeW[i] = rng.Float64() * 10
		}
		edgeW := make([]float64, n-1)
		for i := range edgeW {
			edgeW[i] = rng.Float64() * 10
		}
		p := mustPath(t, nodeW, edgeW)
		var cut []int
		for e := 0; e < n-1; e++ {
			if rng.IntN(3) == 0 {
				cut = append(cut, e)
			}
		}
		if trial%10 == 0 && n > 1 {
			cut = append(cut, rng.IntN(n+1)-1) // often out of range or out of order
		}
		cw, bn, ws, err := p.CutSummary(cut)
		wantCW, wantErr := p.CutWeight(cut)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("cut %v: error %v, CutWeight's %v", cut, err, wantErr)
		}
		if err != nil {
			continue
		}
		wantBN, _ := p.MaxCutEdgeWeight(cut)
		comps, _ := p.Components(cut)
		wantWS := make([]float64, len(comps))
		var run float64
		for i, c := range comps {
			start := run
			for v := c[0]; v <= c[1]; v++ {
				run += p.NodeW[v]
			}
			wantWS[i] = run - start
		}
		if math.Float64bits(cw) != math.Float64bits(wantCW) || math.Float64bits(bn) != math.Float64bits(wantBN) ||
			!reflect.DeepEqual(bitsOf(ws), bitsOf(wantWS)) {
			t.Fatalf("cut %v: summary (%v, %v, %v), parts (%v, %v, %v)", cut, cw, bn, ws, wantCW, wantBN, wantWS)
		}
		if got, _ := p.ComponentWeights(cut); !reflect.DeepEqual(bitsOf(got), bitsOf(wantWS)) {
			t.Fatalf("cut %v: ComponentWeights %v, want %v", cut, got, wantWS)
		}
	}
}

// TestCheckWeightsFirstBad: the plain-loop weight check reports the first
// weight validWeight rejects, with the same error text.
func TestCheckWeightsFirstBad(t *testing.T) {
	bads := []float64{-1, -math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, n := range []int{1, 2, 7, 33} {
		for at := 0; at < n; at++ {
			for _, b := range bads {
				ws := make([]float64, n)
				for i := range ws {
					ws[i] = float64(i)
				}
				ws[0] = math.Copysign(0, -1) // -0 is a valid weight
				ws[at] = b
				if at+1 < n {
					ws[n-1] = math.NaN() // a later bad weight must not win
				}
				err := checkWeights(nil, "NodeW", ws, nil)
				want := fmt.Errorf("NodeW[%d] = %v: %w", at, b, ErrBadWeight)
				if !errors.Is(err, ErrBadWeight) || err.Error() != want.Error() {
					t.Fatalf("n=%d bad %v at %d: %v, want %v", n, b, at, err, want)
				}
			}
		}
		ws := make([]float64, n)
		ws[0] = math.Copysign(0, -1)
		ws[n-1] = math.MaxFloat64
		if err := checkWeights(nil, "EdgeW", ws, nil); err != nil {
			t.Fatalf("valid weights rejected: %v", err)
		}
	}
}
