package prime

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hitting"
	"repro/internal/workload"
)

// bruteIntervals computes prime critical subpaths by definition: every
// contiguous window with weight > K that contains no smaller such window.
func bruteIntervals(nodeW []float64, k float64) []Interval {
	n := len(nodeW)
	sum := func(a, b int) float64 {
		var s float64
		for i := a; i <= b; i++ {
			s += nodeW[i]
		}
		return s
	}
	var out []Interval
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			if sum(a, b) <= k {
				continue
			}
			// minimal: both one-shorter windows are feasible
			minimal := (b == a || sum(a+1, b) <= k) && (b == a || sum(a, b-1) <= k)
			if b == a {
				minimal = true
			}
			if minimal {
				out = append(out, Interval{A: a, B: b - 1})
			}
		}
	}
	return out
}

// bruteCompress computes the compressed instance by definition: each edge's
// covering set of subpaths, runs of consecutive edges with the same non-empty
// covering set, and the lightest edge of each run (the first one on ties).
func bruteCompress(edgeW []float64, ivs []Interval) *Instance {
	inst := &Instance{A: make([]int, len(ivs)), B: make([]int, len(ivs))}
	var prev []int
	for e := range edgeW {
		var cover []int
		for j, iv := range ivs {
			if iv.A <= e && e <= iv.B {
				cover = append(cover, j)
			}
		}
		switch {
		case len(cover) == 0:
		case slices.Equal(cover, prev):
			if last := len(inst.Beta) - 1; edgeW[e] < inst.Beta[last] {
				inst.Beta[last], inst.Orig[last] = edgeW[e], e
			}
		default:
			inst.Beta = append(inst.Beta, edgeW[e])
			inst.Orig = append(inst.Orig, e)
			inst.First = append(inst.First, cover[0])
			inst.Last = append(inst.Last, cover[len(cover)-1])
		}
		prev = cover
	}
	for j := range ivs {
		inst.A[j], inst.B[j] = -1, -1
		for g := range inst.Beta {
			if inst.First[g] <= j && j <= inst.Last[g] {
				if inst.A[j] < 0 {
					inst.A[j] = g
				}
				inst.B[j] = g
			}
		}
	}
	return inst
}

func TestFindBasic(t *testing.T) {
	tests := []struct {
		name  string
		nodeW []float64
		k     float64
		want  []Interval
	}{
		{
			name:  "no critical windows",
			nodeW: []float64{1, 1, 1},
			k:     10,
			want:  nil,
		},
		{
			name:  "single window",
			nodeW: []float64{3, 3, 3},
			k:     8,
			// whole path weighs 9 > 8; any 2 vertices weigh 6 <= 8
			want: []Interval{{A: 0, B: 1}},
		},
		{
			name:  "each pair critical",
			nodeW: []float64{3, 3, 3},
			k:     5,
			want: []Interval{
				{A: 0, B: 0},
				{A: 1, B: 1},
			},
		},
		{
			name:  "dominated subpath removed",
			nodeW: []float64{1, 5, 5, 1},
			k:     9,
			// windows of weight >9: {0..2}=11 (contains {1..2}=10), {1..2}=10,
			// {1..3}=11 (contains {1..2}), {0..3}=12 ... prime is only {1,2}.
			want: []Interval{{A: 1, B: 1}},
		},
		{
			name:  "exact K boundary is feasible",
			nodeW: []float64{5, 5},
			k:     10,
			want:  nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Find(tt.nodeW, tt.k)
			if err != nil {
				t.Fatalf("Find: %v", err)
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Find = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestFindVertexTooHeavy(t *testing.T) {
	_, err := Find([]float64{1, 12, 1}, 10)
	if !errors.Is(err, ErrVertexTooHeavy) {
		t.Errorf("error = %v, want ErrVertexTooHeavy", err)
	}
	// Heavy vertex at the first position.
	_, err = Find([]float64{12, 1}, 10)
	if !errors.Is(err, ErrVertexTooHeavy) {
		t.Errorf("error = %v, want ErrVertexTooHeavy", err)
	}
	// Heavy vertex at the last position.
	_, err = Find([]float64{1, 1, 12}, 10)
	if !errors.Is(err, ErrVertexTooHeavy) {
		t.Errorf("error = %v, want ErrVertexTooHeavy", err)
	}
	// Weight exactly K is fine.
	if _, err := Find([]float64{10, 1}, 10); err != nil {
		t.Errorf("weight == K should be feasible, got %v", err)
	}
}

func TestFindBadBound(t *testing.T) {
	for _, tt := range []struct {
		name  string
		nodeW []float64
		k     float64
		want  string // error text
	}{
		{"negative K", []float64{1, 2, 3}, -1, "vertex 0 weight 1 > K=-1: " + ErrVertexTooHeavy.Error()},
		{"-Inf K", []float64{1, 2, 3}, math.Inf(-1), "vertex 0 weight 1 > K=-Inf: " + ErrVertexTooHeavy.Error()},
		{"zero weight, negative K", []float64{0, 0}, -0.5, "vertex 0 weight 0 > K=-0.5: " + ErrVertexTooHeavy.Error()},
		{"NaN K", []float64{1, 2, 3}, math.NaN(), "prime: K=NaN is not a number"},
		{"NaN K, empty path", nil, math.NaN(), "prime: K=NaN is not a number"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			ivs, err := Find(tt.nodeW, tt.k)
			if err == nil || err.Error() != tt.want || ivs != nil {
				t.Errorf("Find = %v, %v; want nil, %q", ivs, err, tt.want)
			}
			edgeW := make([]float64, max(len(tt.nodeW)-1, 0))
			inst, ivs, err := Analyze(tt.nodeW, edgeW, tt.k)
			if err == nil || err.Error() != tt.want || inst != nil || ivs != nil {
				t.Errorf("Analyze = %+v, %v, %v; want nil, nil, %q", inst, ivs, err, tt.want)
			}
		})
	}
}

func TestFindMatchesBruteForce(t *testing.T) {
	r := workload.NewRNG(99)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(30)
		nodeW := make([]float64, n)
		for i := range nodeW {
			nodeW[i] = float64(1 + r.Intn(9))
		}
		k := float64(9 + r.Intn(30))
		got, err := Find(nodeW, k)
		if err != nil {
			t.Fatalf("Find(%v, %v): %v", nodeW, k, err)
		}
		want := bruteIntervals(nodeW, k)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("nodeW=%v k=%v:\nFind  = %+v\nbrute = %+v", nodeW, k, got, want)
		}
	}
}

func TestFindEndpointsStrictlyIncreasing(t *testing.T) {
	r := workload.NewRNG(5)
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(200)
		nodeW := make([]float64, n)
		for i := range nodeW {
			nodeW[i] = r.Uniform(1, 100)
		}
		k := r.Uniform(100, 500)
		ivs, err := Find(nodeW, k)
		if err != nil {
			t.Fatalf("Find: %v", err)
		}
		for i := 1; i < len(ivs); i++ {
			if ivs[i].A <= ivs[i-1].A || ivs[i].B <= ivs[i-1].B {
				t.Fatalf("endpoints not strictly increasing: %+v then %+v", ivs[i-1], ivs[i])
			}
		}
		for _, iv := range ivs {
			if iv.B < iv.A {
				t.Fatalf("empty edge range in %+v", iv)
			}
		}
	}
}

func TestCompressEmpty(t *testing.T) {
	inst := Compress([]float64{1, 2, 3}, nil)
	if inst.NumIntervals() != 0 || inst.NumEdges() != 0 {
		t.Errorf("empty compress: %+v", inst)
	}
	if inst.MeanCoverage() != 0 || inst.MaxCoverage() != 0 {
		t.Error("empty coverage should be 0")
	}
}

func TestCompressSingleInterval(t *testing.T) {
	// One interval covering edges 1..3; all have identical membership, so a
	// single lightest edge survives.
	ivs := []Interval{{A: 1, B: 3}}
	inst := Compress([]float64{9, 5, 2, 7, 9}, ivs)
	if inst.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1: %+v", inst.NumEdges(), inst)
	}
	if inst.Beta[0] != 2 || inst.Orig[0] != 2 {
		t.Errorf("kept edge = (%v, orig %d), want (2, orig 2)", inst.Beta[0], inst.Orig[0])
	}
	if inst.A[0] != 0 || inst.B[0] != 0 {
		t.Errorf("interval range = [%d,%d], want [0,0]", inst.A[0], inst.B[0])
	}
}

func TestCompressOverlapping(t *testing.T) {
	// Two intervals: edges 0..2 and 2..4. Membership runs: {0,1}->interval 0
	// only; {2}->both; {3,4}->interval 1 only.
	ivs := []Interval{
		{A: 0, B: 2},
		{A: 2, B: 4},
	}
	edgeW := []float64{4, 3, 10, 6, 5}
	inst := Compress(edgeW, ivs)
	if inst.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3: %+v", inst.NumEdges(), inst)
	}
	if !reflect.DeepEqual(inst.Orig, []int{1, 2, 4}) {
		t.Errorf("Orig = %v, want [1 2 4]", inst.Orig)
	}
	if !reflect.DeepEqual(inst.Beta, []float64{3, 10, 5}) {
		t.Errorf("Beta = %v, want [3 10 5]", inst.Beta)
	}
	if !reflect.DeepEqual(inst.A, []int{0, 1}) || !reflect.DeepEqual(inst.B, []int{1, 2}) {
		t.Errorf("A=%v B=%v, want A=[0 1] B=[1 2]", inst.A, inst.B)
	}
	if !reflect.DeepEqual(inst.First, []int{0, 0, 1}) || !reflect.DeepEqual(inst.Last, []int{0, 1, 1}) {
		t.Errorf("First=%v Last=%v", inst.First, inst.Last)
	}
	if got := inst.MeanCoverage(); math.Abs(got-4.0/3.0) > 1e-12 {
		t.Errorf("MeanCoverage = %v, want 4/3", got)
	}
	if inst.MaxCoverage() != 2 {
		t.Errorf("MaxCoverage = %d, want 2", inst.MaxCoverage())
	}
}

func TestCompressDropsUncoveredEdges(t *testing.T) {
	// Interval covers only edges 2..3 of a 6-edge path; edges 0,1,4,5 are
	// uncovered and must be dropped.
	ivs := []Interval{{A: 2, B: 3}}
	inst := Compress([]float64{1, 1, 8, 9, 1, 1}, ivs)
	if inst.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", inst.NumEdges())
	}
	if inst.Orig[0] != 2 {
		t.Errorf("Orig = %v, want [2]", inst.Orig)
	}
}

// Property: compression invariants hold for random instances.
func TestCompressInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := workload.NewRNG(seed)
		n := 2 + r.Intn(300)
		nodeW := make([]float64, n)
		for i := range nodeW {
			nodeW[i] = r.Uniform(1, 50)
		}
		edgeW := make([]float64, n-1)
		for i := range edgeW {
			edgeW[i] = r.Uniform(1, 20)
		}
		k := r.Uniform(50, 400)
		inst, ivs, err := Analyze(nodeW, edgeW, k)
		if err != nil {
			return false
		}
		p, rr := inst.NumIntervals(), inst.NumEdges()
		if p != len(ivs) {
			return false
		}
		if p == 0 {
			return rr == 0
		}
		// r <= min(n-1, 2p-1), the paper's bound.
		if rr > n-1 || rr > 2*p-1 {
			return false
		}
		// A and B strictly increasing, ranges valid and within [0, r).
		for j := 0; j < p; j++ {
			if inst.A[j] > inst.B[j] || inst.A[j] < 0 || inst.B[j] >= rr {
				return false
			}
			if j > 0 && (inst.A[j] <= inst.A[j-1] || inst.B[j] <= inst.B[j-1]) {
				return false
			}
		}
		// Membership consistency: edge i covered by intervals [First, Last],
		// and A/B agree with First/Last.
		for i := 0; i < rr; i++ {
			if inst.First[i] > inst.Last[i] {
				return false
			}
			for j := 0; j < p; j++ {
				inRange := inst.A[j] <= i && i <= inst.B[j]
				member := inst.First[i] <= j && j <= inst.Last[i]
				if inRange != member {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	ivs := []Interval{{A: 0, B: 1}}
	inst := Compress([]float64{2, 3}, ivs)
	s := Summarize(3, inst)
	if s.N != 3 || s.P != 1 || s.R != 1 || s.Q != 1 || s.QMax != 1 {
		t.Errorf("Summarize = %+v", s)
	}
}

// FuzzAnalyze checks Analyze, fresh and on a reused Scratch, against the
// definitional oracles. Weights and K are small integers, exact in float64,
// so the oracles' sums are exact; zero weights, edge-weight ties, heavy
// vertices and negative K all occur.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{3, 3, 3, 3, 3}, int8(5))
	f.Add([]byte{0x11, 0x05, 0x15, 0x01}, int8(9))
	f.Add([]byte{0, 0, 0, 0x20, 0x30, 0}, int8(0))
	f.Add([]byte{0x0f, 1, 2}, int8(-3))
	f.Add([]byte{0x47, 0x18, 0x29, 0x3a, 0x1b, 0x0c, 0x2d, 0x1e, 0x09, 0x38}, int8(20))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw int8) {
		if len(raw) == 0 || len(raw) > 64 {
			t.Skip()
		}
		// Low nibble: vertex weight 0..15; high nibble: edge weight 0..3.
		nodeW := make([]float64, len(raw))
		edgeW := make([]float64, len(raw)-1)
		for i, b := range raw {
			nodeW[i] = float64(b & 0xf)
			if i < len(edgeW) {
				edgeW[i] = float64(b >> 4 & 3)
			}
		}
		k := float64(kRaw)
		// s is left holding another instance's arrays, so the reused
		// capacity starts with stale entries.
		var s Scratch
		s.Analyze([]float64{1, 1, 1, 1, 1, 1, 1, 1}, []float64{3, 1, 2, 1, 3, 2, 1}, 2)
		for _, analyze := range []func([]float64, []float64, float64) (*Instance, []Interval, error){Analyze, s.Analyze} {
			inst, ivs, err := analyze(nodeW, edgeW, k)
			if slices.Max(nodeW) > k {
				if !errors.Is(err, ErrVertexTooHeavy) {
					t.Fatalf("nodeW=%v k=%v: err = %v, want ErrVertexTooHeavy", nodeW, k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("nodeW=%v k=%v: %v", nodeW, k, err)
			}
			want := bruteIntervals(nodeW, k)
			if !slices.Equal(ivs, want) {
				t.Fatalf("nodeW=%v k=%v:\nAnalyze = %+v\nbrute   = %+v", nodeW, k, ivs, want)
			}
			w := bruteCompress(edgeW, want)
			if !slices.Equal(inst.Beta, w.Beta) || !slices.Equal(inst.Orig, w.Orig) ||
				!slices.Equal(inst.A, w.A) || !slices.Equal(inst.B, w.B) ||
				!slices.Equal(inst.First, w.First) || !slices.Equal(inst.Last, w.Last) {
				t.Fatalf("nodeW=%v edgeW=%v k=%v:\nAnalyze = %+v\nbrute   = %+v", nodeW, edgeW, k, inst, w)
			}
			// core hands this instance to hitting.SolveTempSCtx, which
			// takes a valid instance as its precondition and does not check.
			hin := hitting.Instance{Beta: inst.Beta, A: inst.A, B: inst.B}
			if err := hin.Validate(); err != nil {
				t.Fatalf("nodeW=%v edgeW=%v k=%v: %v", nodeW, edgeW, k, err)
			}
		}
	})
}
