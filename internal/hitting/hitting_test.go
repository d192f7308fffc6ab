package hitting

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/prime"
	"repro/internal/workload"
)

func TestInstanceValidate(t *testing.T) {
	tests := []struct {
		name string
		in   Instance
		ok   bool
	}{
		{"empty", Instance{}, true},
		{"single", Instance{Beta: []float64{1}, A: []int{0}, B: []int{0}}, true},
		{"two", Instance{Beta: []float64{1, 2, 3}, A: []int{0, 1}, B: []int{1, 2}}, true},
		{"len mismatch", Instance{Beta: []float64{1}, A: []int{0}, B: nil}, false},
		{"negative beta", Instance{Beta: []float64{-1}, A: []int{0}, B: []int{0}}, false},
		{"nan beta", Instance{Beta: []float64{math.NaN()}, A: []int{0}, B: []int{0}}, false},
		{"out of range", Instance{Beta: []float64{1}, A: []int{0}, B: []int{1}}, false},
		{"empty interval", Instance{Beta: []float64{1, 2}, A: []int{1}, B: []int{0}}, false},
		{"A not increasing", Instance{Beta: []float64{1, 2, 3}, A: []int{0, 0}, B: []int{1, 2}}, false},
		{"B not increasing", Instance{Beta: []float64{1, 2, 3}, A: []int{0, 1}, B: []int{2, 2}}, false},
		{"nested", Instance{Beta: []float64{1, 2, 3}, A: []int{0, 1}, B: []int{2, 1}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.in.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
			if err != nil && !errors.Is(err, ErrBadInstance) {
				t.Errorf("error %v should wrap ErrBadInstance", err)
			}
		})
	}
}

func solverTable() []struct {
	name string
	f    func(*Instance) (*Solution, error)
} {
	return []struct {
		name string
		f    func(*Instance) (*Solution, error)
	}{
		{"TempS", SolveTempS},
		{"NaiveDP", SolveNaiveDP},
		{"Brute", SolveBrute},
	}
}

func TestSolversHandCases(t *testing.T) {
	tests := []struct {
		name       string
		in         Instance
		wantWeight float64
		wantPoints []int // nil means any optimal-weight cut accepted
	}{
		{
			name:       "no intervals",
			in:         Instance{Beta: []float64{5, 5}},
			wantWeight: 0,
			wantPoints: nil,
		},
		{
			name:       "single interval picks min",
			in:         Instance{Beta: []float64{5, 2, 9}, A: []int{0}, B: []int{2}},
			wantWeight: 2,
			wantPoints: []int{1},
		},
		{
			name: "shared point covers both",
			in: Instance{
				Beta: []float64{10, 3, 10},
				A:    []int{0, 1},
				B:    []int{1, 2},
			},
			wantWeight: 3,
			wantPoints: []int{1},
		},
		{
			name: "disjoint intervals need two points",
			in: Instance{
				Beta: []float64{4, 7, 6, 5},
				A:    []int{0, 2},
				B:    []int{1, 3},
			},
			wantWeight: 9,
			wantPoints: []int{0, 3},
		},
		{
			name: "cheap shared point loses to two cheaper dedicated ones",
			in: Instance{
				// intervals [0,2] and [2,4]; point 2 costs 5, but points 0
				// and 4 cost 1+1=2.
				Beta: []float64{1, 9, 5, 9, 1},
				A:    []int{0, 2},
				B:    []int{2, 4},
			},
			wantWeight: 2,
			wantPoints: []int{0, 4},
		},
		{
			name: "chain of three overlapping",
			in: Instance{
				Beta: []float64{8, 2, 8, 2, 8},
				A:    []int{0, 1, 2},
				B:    []int{2, 3, 4},
			},
			// points 1 and 3 hit {0,1} and {1,2}: total 4.
			wantWeight: 4,
			wantPoints: []int{1, 3},
		},
		{
			name: "zero-weight points",
			in: Instance{
				Beta: []float64{0, 5, 0},
				A:    []int{0, 1},
				B:    []int{1, 2},
			},
			wantWeight: 0,
			wantPoints: []int{0, 2},
		},
	}
	for _, tt := range tests {
		for _, s := range solverTable() {
			t.Run(tt.name+"/"+s.name, func(t *testing.T) {
				got, err := s.f(&tt.in)
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				if math.Abs(got.Weight-tt.wantWeight) > 1e-9 {
					t.Errorf("weight = %v, want %v (points %v)", got.Weight, tt.wantWeight, got.Points)
				}
				if !got.covers(&tt.in) {
					t.Errorf("solution %v does not cover all intervals", got.Points)
				}
				if tt.wantPoints != nil && !reflect.DeepEqual(got.Points, tt.wantPoints) {
					// Equal-weight ties may legitimately differ; only flag if
					// the weight differs too (already checked) or coverage
					// fails (already checked). Still verify the points sum to
					// the reported weight.
				}
				var sum float64
				for _, p := range got.Points {
					sum += tt.in.Beta[p]
				}
				if math.Abs(sum-got.Weight) > 1e-9 {
					t.Errorf("points %v sum to %v, reported weight %v", got.Points, sum, got.Weight)
				}
			})
		}
	}
}

// randomInstance builds a random valid ordered-interval instance.
func randomInstance(r *workload.RNG, maxPoints int) *Instance {
	n := 1 + r.Intn(maxPoints)
	in := &Instance{Beta: make([]float64, n)}
	for i := range in.Beta {
		in.Beta[i] = float64(r.Intn(50))
	}
	// Random strictly increasing interval endpoints.
	a, b := 0, 0
	for a < n {
		width := 1 + r.Intn(4)
		end := a + width - 1
		if end >= n {
			end = n - 1
		}
		if end < b && len(in.A) > 0 {
			break
		}
		if len(in.A) > 0 && (a <= in.A[len(in.A)-1] || end <= in.B[len(in.B)-1]) {
			a++
			continue
		}
		if r.Float64() < 0.7 {
			in.A = append(in.A, a)
			in.B = append(in.B, end)
			b = end
		}
		a += 1 + r.Intn(3)
	}
	return in
}

func TestSolversAgreeOnRandomInstances(t *testing.T) {
	r := workload.NewRNG(2024)
	for trial := 0; trial < 500; trial++ {
		in := randomInstance(r, 18)
		if err := in.Validate(); err != nil {
			t.Fatalf("generator produced invalid instance: %v (%+v)", err, in)
		}
		brute, err := SolveBrute(in)
		if err != nil {
			t.Fatalf("brute: %v", err)
		}
		temps, err := SolveTempS(in)
		if err != nil {
			t.Fatalf("temps: %v (%+v)", err, in)
		}
		naive, err := SolveNaiveDP(in)
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		if math.Abs(temps.Weight-brute.Weight) > 1e-9 {
			t.Fatalf("TempS weight %v != brute %v on %+v", temps.Weight, brute.Weight, in)
		}
		if math.Abs(naive.Weight-brute.Weight) > 1e-9 {
			t.Fatalf("NaiveDP weight %v != brute %v on %+v", naive.Weight, brute.Weight, in)
		}
		if !temps.covers(in) || !naive.covers(in) {
			t.Fatalf("solver returned non-covering solution on %+v", in)
		}
	}
}

func TestSolversAgreeOnPrimeInstances(t *testing.T) {
	// Instances arising from real paths via the prime-subpath pipeline.
	r := workload.NewRNG(555)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(60)
		nodeW := make([]float64, n)
		for i := range nodeW {
			nodeW[i] = r.Uniform(1, 30)
		}
		edgeW := make([]float64, n-1)
		for i := range edgeW {
			edgeW[i] = r.Uniform(1, 50)
		}
		k := r.Uniform(30, 150)
		pinst, _, err := prime.Analyze(nodeW, edgeW, k)
		if err != nil {
			trial--
			continue
		}
		in := &Instance{Beta: pinst.Beta, A: pinst.A, B: pinst.B}
		temps, err := SolveTempS(in)
		if err != nil {
			t.Fatalf("temps: %v", err)
		}
		naive, err := SolveNaiveDP(in)
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		if math.Abs(temps.Weight-naive.Weight) > 1e-9 {
			t.Fatalf("TempS %v != NaiveDP %v (n=%d k=%v)", temps.Weight, naive.Weight, n, k)
		}
		if in.NumPoints() <= 20 {
			brute, err := SolveBrute(in)
			if err != nil {
				t.Fatalf("brute: %v", err)
			}
			if math.Abs(temps.Weight-brute.Weight) > 1e-9 {
				t.Fatalf("TempS %v != brute %v", temps.Weight, brute.Weight)
			}
		}
	}
}

func TestSolveBruteTooLarge(t *testing.T) {
	in := &Instance{Beta: make([]float64, 30), A: []int{0}, B: []int{29}}
	if _, err := SolveBrute(in); !errors.Is(err, ErrTooLarge) {
		t.Errorf("error = %v, want ErrTooLarge", err)
	}
}

func TestTempSInstrumentation(t *testing.T) {
	r := workload.NewRNG(77)
	in := randomInstance(r, 2000)
	sol, tr, err := SolveTempSInstrumented(in)
	if err != nil {
		t.Fatalf("instrumented: %v", err)
	}
	plain, err := SolveTempS(in)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	if sol.Weight != plain.Weight {
		t.Errorf("instrumented weight %v != plain %v", sol.Weight, plain.Weight)
	}
	if len(in.A) > 0 {
		if tr.Steps == 0 {
			t.Error("no steps recorded")
		}
		if tr.MaxQueueLen < 1 {
			t.Error("max queue length < 1 despite intervals present")
		}
		if tr.MeanQueueLen() <= 0 {
			t.Error("mean queue length should be positive")
		}
	}
}

func TestTraceMeanEmptyIsZero(t *testing.T) {
	tr := &Trace{}
	if tr.MeanQueueLen() != 0 {
		t.Error("empty trace mean should be 0")
	}
}

// Property: TempS equals NaiveDP on arbitrary random instances.
func TestTempSEqualsNaiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := workload.NewRNG(seed)
		in := randomInstance(r, 400)
		a, err1 := SolveTempS(in)
		b, err2 := SolveNaiveDP(in)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.Weight-b.Weight) < 1e-9 && a.covers(in) && b.covers(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// hasPointers reports whether a value of type t holds anything the garbage
// collector must trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// TestTempSScratchHoldsNoPointers: every array of the sweep's pooled
// scratch (the int32 queue rows and arena links, and the search variants'
// fork in variants_test.go, which uses the same element types) has a
// pointer-free element type, so filling it needs no write barriers and
// the garbage collector never scans it.
func TestTempSScratchHoldsNoPointers(t *testing.T) {
	for _, c := range []struct {
		v    any
		want bool
	}{
		{struct{ p *int }{}, true},
		{[]int{}, true},
		{[2]string{}, true},
		{struct{ a [3]float64 }{}, false},
	} {
		if got := hasPointers(reflect.TypeOf(c.v)); got != c.want {
			t.Fatalf("hasPointers(%T) = %v, want %v", c.v, got, c.want)
		}
	}
	st := reflect.TypeOf(tempSScratch{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Type.Kind() != reflect.Slice {
			t.Errorf("tempSScratch.%s is a %s, want a slice", f.Name, f.Type)
			continue
		}
		if hasPointers(f.Type.Elem()) {
			t.Errorf("tempSScratch.%s holds %s, which has pointers", f.Name, f.Type.Elem())
		}
	}
}

// TestTempSWalksRuns: on a raw instance the sweep takes one step per run,
// a maximal stretch of points covered by the same intervals, and picks the
// run's first lightest point; uncovered points take no step.
func TestTempSWalksRuns(t *testing.T) {
	// Intervals [1,4] and [3,6] over 8 points: runs {1,2}, {3,4}, {5,6};
	// points 0 and 7 are uncovered. Points 3 and 4 tie at the minimum.
	in := &Instance{Beta: []float64{0, 4, 4, 1, 1, 4, 4, 0}, A: []int{1, 3}, B: []int{4, 6}}
	sol, tr, err := SolveTempSInstrumented(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.Points, []int{3}) || sol.Weight != 1 {
		t.Errorf("solution %v of weight %v, want [3] of weight 1", sol.Points, sol.Weight)
	}
	if tr.Steps != 3 {
		t.Errorf("%d steps, want 3 (one per run)", tr.Steps)
	}
	if _, iters, _ := SolveTempSCtx(context.Background(), in, nil); iters != 3 {
		t.Errorf("%d iterations, want 3", iters)
	}
}

// TestTempSRunsMatchCompressed: on path instances the sweep over the raw
// edges and the prime subpaths takes the same steps as over the compressed
// instance, one per non-redundant edge, and returns the same cut (mapped
// through Orig), the same weight bits and the same queue trace.
func TestTempSRunsMatchCompressed(t *testing.T) {
	r := workload.NewRNG(909)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(400)
		nodeW := make([]float64, n)
		edgeW := make([]float64, n-1)
		for i := range nodeW {
			nodeW[i] = float64(1 + r.Intn(20))
		}
		for i := range edgeW {
			// Few distinct weights, so runs hold ties.
			edgeW[i] = float64(r.Intn(4))
		}
		k := float64(20 + r.Intn(100))
		inst, ivs, err := prime.Analyze(nodeW, edgeW, k)
		if err != nil {
			t.Fatal(err)
		}
		a, b := make([]int, len(ivs)), make([]int, len(ivs))
		for j, iv := range ivs {
			a[j], b[j] = iv.A, iv.B
		}
		var rawTr, compTr Trace
		points, w, iters, err := SolveTempSIntervals(context.Background(), edgeW, a, b, &rawTr)
		if err != nil {
			t.Fatal(err)
		}
		comp, compIters, err := SolveTempSCtx(context.Background(), &Instance{Beta: inst.Beta, A: inst.A, B: inst.B}, &compTr)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range comp.Points {
			comp.Points[i] = inst.Orig[pt]
		}
		if !reflect.DeepEqual(points, comp.Points) || math.Float64bits(w) != math.Float64bits(comp.Weight) ||
			iters != compIters || iters != int64(inst.NumEdges()) || rawTr != compTr {
			t.Fatalf("n=%d k=%v: raw %v (%v, %d iterations, %+v), compressed %v (%v, %d, %+v), r = %d",
				n, k, points, w, iters, rawTr, comp.Points, comp.Weight, compIters, compTr, inst.NumEdges())
		}
	}
}
