package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/workload"
)

// bruteLimited finds the optimal cut weight with components ≤ m by
// enumeration.
func bruteLimited(t *testing.T, p *graph.Path, k float64, m int) (float64, bool) {
	t.Helper()
	e := p.NumEdges()
	if e > 18 {
		t.Fatalf("bruteLimited: too many edges")
	}
	prefix := p.PrefixNodeWeights()
	best := math.Inf(1)
	found := false
	for mask := 0; mask < 1<<e; mask++ {
		cuts := 0
		var w float64
		feasible := true
		start := 0
		for i := 0; i <= e; i++ {
			if i == e || mask&(1<<i) != 0 {
				if prefix[i+1]-prefix[start] > k {
					feasible = false
					break
				}
				start = i + 1
				if i < e {
					cuts++
					w += p.EdgeW[i]
				}
			}
		}
		if feasible && cuts+1 <= m && w < best {
			best = w
			found = true
		}
	}
	return best, found
}

func TestBandwidthLimitedHandCases(t *testing.T) {
	p, _ := graph.NewPath(
		[]float64{4, 4, 4, 4, 4, 4},
		[]float64{10, 1, 10, 1, 10},
	)
	// Unconstrained optimum uses 3 components (cut the two 1-weight edges).
	un, _, err := Bandwidth(ctx, p, 12)
	if err != nil {
		t.Fatalf("Bandwidth: %v", err)
	}
	if un.NumComponents() != 3 {
		t.Fatalf("unconstrained components = %d", un.NumComponents())
	}
	// With m = 2, only one cut allowed: components 12 and 12; cheapest
	// feasible single cut is edge 2 (weight 10) — edges 1 and 3 leave a
	// side weighing 16.
	lim, _, err := BandwidthLimited(ctx, p, 12, 2)
	if err != nil {
		t.Fatalf("BandwidthLimited: %v", err)
	}
	if lim.NumComponents() != 2 || lim.CutWeight != 10 {
		t.Errorf("limited = %d components, weight %v (cut %v); want 2/10",
			lim.NumComponents(), lim.CutWeight, lim.Cut)
	}
	// m = 3 matches the unconstrained optimum.
	lim3, _, err := BandwidthLimited(ctx, p, 12, 3)
	if err != nil {
		t.Fatalf("BandwidthLimited(3): %v", err)
	}
	if lim3.CutWeight != un.CutWeight {
		t.Errorf("m=3 weight %v != unconstrained %v", lim3.CutWeight, un.CutWeight)
	}
	// m = 1 cannot hold 24 > 12.
	if _, _, err := BandwidthLimited(ctx, p, 12, 1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("m=1: %v", err)
	}
	// Whole path fits: empty cut regardless of m.
	small, _ := graph.NewPath([]float64{1, 1}, []float64{5})
	got, _, err := BandwidthLimited(ctx, small, 10, 1)
	if err != nil || len(got.Cut) != 0 {
		t.Errorf("fit-in-one: %v / %v", got, err)
	}
}

func TestBandwidthLimitedErrors(t *testing.T) {
	p, _ := graph.NewPath([]float64{1, 2}, []float64{1})
	if _, _, err := BandwidthLimited(ctx, p, 5, 0); !errors.Is(err, ErrBadBound) {
		t.Errorf("m=0: %v", err)
	}
	if _, _, err := BandwidthLimited(ctx, p, -1, 2); !errors.Is(err, ErrBadBound) {
		t.Errorf("k<0: %v", err)
	}
	heavy, _ := graph.NewPath([]float64{50, 1}, []float64{1})
	if _, _, err := BandwidthLimited(ctx, heavy, 10, 2); !errors.Is(err, ErrInfeasible) {
		t.Errorf("heavy: %v", err)
	}
}

func TestBandwidthLimitedMatchesBrute(t *testing.T) {
	r := workload.NewRNG(424242)
	for trial := 0; trial < 300; trial++ {
		p, k := randomPathForTest(r, 14)
		m := 1 + r.Intn(6)
		want, feasible := bruteLimited(t, p, k, m)
		got, _, err := BandwidthLimited(ctx, p, k, m)
		if !feasible {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("want infeasible, got %v / err %v", got, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("BandwidthLimited: %v (nodeW=%v k=%v m=%d)", err, p.NodeW, k, m)
		}
		if math.Abs(got.CutWeight-want) > 1e-9 {
			t.Fatalf("weight %v != brute %v\nnodeW=%v edgeW=%v k=%v m=%d cut=%v",
				got.CutWeight, want, p.NodeW, p.EdgeW, k, m, got.Cut)
		}
		if got.NumComponents() > m {
			t.Fatalf("used %d components > m=%d", got.NumComponents(), m)
		}
		if err := CheckPathFeasible(p, got.Cut, k); err != nil {
			t.Fatalf("infeasible cut: %v", err)
		}
	}
}

// Property: relaxing m converges to the unconstrained optimum and is
// monotone along the way.
func TestBandwidthLimitedMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := workload.NewRNG(seed)
		n := 2 + r.Intn(60)
		p := workload.RandomPath(r, n, workload.UniformWeights(1, 10), workload.UniformWeights(1, 50))
		k := r.Uniform(10, 80)
		un, _, err := Bandwidth(ctx, p, k)
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		prev := math.Inf(1)
		for m := 1; m <= n; m *= 2 {
			lim, _, err := BandwidthLimited(ctx, p, k, m)
			if err != nil {
				if errors.Is(err, ErrInfeasible) {
					continue
				}
				return false
			}
			if lim.CutWeight > prev+1e-9 {
				return false
			}
			prev = lim.CutWeight
			if lim.CutWeight < un.CutWeight-1e-9 {
				return false // limited can never beat unconstrained
			}
		}
		full, _, err := BandwidthLimited(ctx, p, k, n)
		if err != nil {
			return false
		}
		return math.Abs(full.CutWeight-un.CutWeight) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTradeoffCurve(t *testing.T) {
	r := workload.NewRNG(33)
	p := workload.RandomPath(r, 100, workload.UniformWeights(1, 10), workload.UniformWeights(1, 50))
	ks := []float64{5, 12, 25, 50, 100, 200, 1000}
	points, err := TradeoffCurve(p, ks)
	if err != nil {
		t.Fatalf("TradeoffCurve: %v", err)
	}
	if len(points) == 0 {
		t.Fatal("no feasible points")
	}
	// Infeasible Ks (below max node weight ~10) are skipped.
	if points[0].K < p.MaxNodeWeight() {
		t.Errorf("infeasible K %v not skipped", points[0].K)
	}
	for i := 1; i < len(points); i++ {
		if points[i].CutWeight > points[i-1].CutWeight+1e-9 {
			t.Errorf("cut weight not monotone: %v then %v", points[i-1], points[i])
		}
	}
	last := points[len(points)-1]
	if last.K >= p.TotalNodeWeight() && last.CutWeight != 0 {
		t.Errorf("K beyond total weight should need no cut: %+v", last)
	}
}
