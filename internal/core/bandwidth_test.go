package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/verify/oracle"
	"repro/internal/workload"
)

func bandwidthSolvers() []struct {
	name string
	f    func(context.Context, *graph.Path, float64) (*PathPartition, int64, error)
} {
	return []struct {
		name string
		f    func(context.Context, *graph.Path, float64) (*PathPartition, int64, error)
	}{
		{"TempS", Bandwidth},
		{"Deque", BandwidthDeque},
		{"Heap", BandwidthHeap},
		{"Naive", BandwidthNaive},
	}
}

func TestBandwidthHandCases(t *testing.T) {
	tests := []struct {
		name  string
		nodeW []float64
		edgeW []float64
		k     float64
		want  float64 // optimal cut weight
	}{
		{
			name:  "no cut needed",
			nodeW: []float64{1, 2, 3},
			edgeW: []float64{100, 100},
			k:     10,
			want:  0,
		},
		{
			name:  "single cheap cut",
			nodeW: []float64{5, 5, 5},
			edgeW: []float64{9, 2},
			k:     10,
			want:  2,
		},
		{
			name:  "forced expensive cut",
			nodeW: []float64{6, 6, 6},
			edgeW: []float64{3, 4},
			k:     10,
			// every pair exceeds 10, so both edges must go
			want: 7,
		},
		{
			name:  "paper-style pipeline",
			nodeW: []float64{4, 4, 4, 4, 4, 4},
			edgeW: []float64{10, 1, 10, 1, 10},
			k:     12,
			// cut edges 1 and 3 (weight 1 each): components 8, 8, 8.
			want: 2,
		},
		{
			name:  "single node",
			nodeW: []float64{7},
			edgeW: nil,
			k:     7,
			want:  0,
		},
		{
			name:  "two nodes forced",
			nodeW: []float64{7, 7},
			edgeW: []float64{42},
			k:     10,
			want:  42,
		},
		{
			name:  "zero edge weights",
			nodeW: []float64{5, 5, 5, 5},
			edgeW: []float64{0, 0, 0},
			k:     10,
			want:  0,
		},
	}
	for _, tt := range tests {
		p, err := graph.NewPath(tt.nodeW, tt.edgeW)
		if err != nil {
			t.Fatalf("%s: NewPath: %v", tt.name, err)
		}
		for _, s := range bandwidthSolvers() {
			t.Run(tt.name+"/"+s.name, func(t *testing.T) {
				got, _, err := s.f(ctx, p, tt.k)
				if err != nil {
					t.Fatalf("%v", err)
				}
				if math.Abs(got.CutWeight-tt.want) > 1e-9 {
					t.Errorf("CutWeight = %v (cut %v), want %v", got.CutWeight, got.Cut, tt.want)
				}
				if err := CheckPathFeasible(p, got.Cut, tt.k); err != nil {
					t.Errorf("infeasible result: %v", err)
				}
				if got.NumComponents() != len(got.Cut)+1 {
					t.Errorf("NumComponents = %d, want %d", got.NumComponents(), len(got.Cut)+1)
				}
			})
		}
	}
}

func TestBandwidthInfeasible(t *testing.T) {
	p, _ := graph.NewPath([]float64{5, 50, 5}, []float64{1, 1})
	for _, s := range bandwidthSolvers() {
		if _, _, err := s.f(ctx, p, 10); !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: error = %v, want ErrInfeasible", s.name, err)
		}
	}
	// The shared oracle must agree that no feasible cut exists.
	if res, err := oracle.PathDP(p, 10); err != nil || res.Feasible {
		t.Errorf("oracle.PathDP = %+v, err %v, want infeasible", res, err)
	}
}

func TestBandwidthBadBound(t *testing.T) {
	p, _ := graph.NewPath([]float64{1, 2}, []float64{1})
	for _, k := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		for _, s := range bandwidthSolvers() {
			if _, _, err := s.f(ctx, p, k); !errors.Is(err, ErrBadBound) {
				t.Errorf("%s(K=%v): error = %v, want ErrBadBound", s.name, k, err)
			}
		}
	}
}

func TestBandwidthAllSolversMatchBrute(t *testing.T) {
	r := workload.NewRNG(7777)
	for trial := 0; trial < 400; trial++ {
		p, k := randomPathForTest(r, 18)
		want, err := oracle.PathDP(p, k)
		if err != nil {
			t.Fatalf("seed %d trial %d: oracle.PathDP: %v", r.Seed(), trial, err)
		}
		if !want.Feasible {
			continue
		}
		for _, s := range bandwidthSolvers() {
			got, _, err := s.f(ctx, p, k)
			if err != nil {
				t.Fatalf("seed %d trial %d: %s: %v (path %+v k=%v)", r.Seed(), trial, s.name, err, p, k)
			}
			if math.Abs(got.CutWeight-want.MinCutWeight) > 1e-9 {
				t.Fatalf("seed %d trial %d: %s CutWeight = %v, oracle = %v\nnodeW=%v\nedgeW=%v\nk=%v\ncut=%v",
					r.Seed(), trial, s.name, got.CutWeight, want.MinCutWeight, p.NodeW, p.EdgeW, k, got.Cut)
			}
			if err := CheckPathFeasible(p, got.Cut, k); err != nil {
				t.Fatalf("seed %d trial %d: %s returned infeasible cut: %v", r.Seed(), trial, s.name, err)
			}
		}
	}
}

func TestBandwidthLargeAgreement(t *testing.T) {
	// The four polynomial solvers must agree on large instances too.
	r := workload.NewRNG(1234)
	for trial := 0; trial < 20; trial++ {
		n := 500 + r.Intn(3000)
		p := workload.RandomPath(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 1000))
		k := r.Uniform(120, 2000)
		var ref *PathPartition
		for _, s := range bandwidthSolvers() {
			got, _, err := s.f(ctx, p, k)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if err := CheckPathFeasible(p, got.Cut, k); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if ref == nil {
				ref = got
				continue
			}
			if math.Abs(got.CutWeight-ref.CutWeight) > 1e-6 {
				t.Fatalf("%s CutWeight %v != TempS %v (n=%d k=%v)", s.name, got.CutWeight, ref.CutWeight, n, k)
			}
		}
	}
}

func TestBandwidthInstrumented(t *testing.T) {
	r := workload.NewRNG(9)
	p := workload.RandomPath(r, 5000, workload.UniformWeights(1, 100), workload.UniformWeights(1, 10))
	pp, trace, err := BandwidthInstrumented(p, 400)
	if err != nil {
		t.Fatalf("BandwidthInstrumented: %v", err)
	}
	plain, _, err := Bandwidth(ctx, p, 400)
	if err != nil {
		t.Fatalf("Bandwidth: %v", err)
	}
	if pp.CutWeight != plain.CutWeight {
		t.Errorf("instrumented weight %v != plain %v", pp.CutWeight, plain.CutWeight)
	}
	if trace == nil || trace.Steps == 0 {
		t.Fatal("no trace recorded")
	}
	if trace.MeanQueueLen() < 1 {
		t.Errorf("mean queue length %v < 1", trace.MeanQueueLen())
	}
}

func TestBandwidthCutIsSortedAndDeduped(t *testing.T) {
	r := workload.NewRNG(55)
	for trial := 0; trial < 50; trial++ {
		p, k := randomPathForTest(r, 200)
		pp, _, err := Bandwidth(ctx, p, k)
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("Bandwidth: %v", err)
		}
		for i := 1; i < len(pp.Cut); i++ {
			if pp.Cut[i] <= pp.Cut[i-1] {
				t.Fatalf("cut not strictly increasing: %v", pp.Cut)
			}
		}
	}
}

// Property: TempS never does worse than any single-cut or empty-cut
// heuristic, and matches the deque DP exactly.
func TestBandwidthProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := workload.NewRNG(seed)
		n := 2 + r.Intn(400)
		p := workload.RandomPath(r, n, workload.UniformWeights(1, 10), workload.UniformWeights(0, 100))
		k := r.Uniform(10, 200)
		a, _, err1 := Bandwidth(ctx, p, k)
		b, _, err2 := BandwidthDeque(ctx, p, k)
		if err1 != nil || err2 != nil {
			// Both must fail together (same feasibility condition).
			return errors.Is(err1, ErrInfeasible) == errors.Is(err2, ErrInfeasible)
		}
		return math.Abs(a.CutWeight-b.CutWeight) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPathPartitionFields(t *testing.T) {
	p, _ := graph.NewPath([]float64{5, 5, 5}, []float64{2, 7})
	pp, _, err := Bandwidth(ctx, p, 10)
	if err != nil {
		t.Fatalf("Bandwidth: %v", err)
	}
	// One cut suffices: cut edge 0 (weight 2) leaves components 5 and 10.
	if pp.CutWeight != 2 || pp.Bottleneck != 2 || pp.K != 10 {
		t.Errorf("partition = %+v", pp)
	}
	if len(pp.ComponentWeights) != 2 {
		t.Errorf("ComponentWeights = %v", pp.ComponentWeights)
	}
}
