package repro_test

import (
	"math"
	"reflect"
	"testing"

	"repro"
	"repro/internal/graph/graphtest"
)

func TestFacadeLimitedAndTradeoff(t *testing.T) {
	p, err := repro.NewPath(
		[]float64{4, 4, 4, 4, 4, 4},
		[]float64{10, 1, 10, 1, 10},
	)
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	lim, err := repro.BandwidthLimited(p, 12, 2)
	if err != nil {
		t.Fatalf("BandwidthLimited: %v", err)
	}
	if lim.NumComponents() != 2 || lim.CutWeight != 10 {
		t.Errorf("limited = %d components weight %v, want 2/10", lim.NumComponents(), lim.CutWeight)
	}
	curve, err := repro.TradeoffCurve(p, []float64{2, 8, 12, 24, 100})
	if err != nil {
		t.Fatalf("TradeoffCurve: %v", err)
	}
	// K=2 infeasible (a 4-weight task), K=100 needs no cut.
	if len(curve) != 4 {
		t.Fatalf("curve has %d points, want 4: %+v", len(curve), curve)
	}
	if curve[0].K != 8 || curve[len(curve)-1].CutWeight != 0 {
		t.Errorf("curve endpoints wrong: %+v", curve)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].CutWeight > curve[i-1].CutWeight+1e-9 {
			t.Errorf("curve not monotone at %d: %+v", i, curve)
		}
	}
}

func TestFacadeGreedyAndPathVariants(t *testing.T) {
	tr, err := repro.NewTree(
		[]float64{6, 6, 6},
		[]repro.Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 9}},
	)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	a, err := repro.Bottleneck(tr, 12)
	if err != nil {
		t.Fatalf("Bottleneck: %v", err)
	}
	b, err := repro.BottleneckGreedy(tr, 12)
	if err != nil {
		t.Fatalf("BottleneckGreedy: %v", err)
	}
	if !reflect.DeepEqual(a.Cut, b.Cut) {
		t.Errorf("greedy cut %v != binary cut %v", b.Cut, a.Cut)
	}
	p, _ := repro.NewPath([]float64{5, 5, 5, 5}, []float64{1, 1, 1})
	ff, err := repro.MinProcessorsPath(p, 10)
	if err != nil {
		t.Fatalf("MinProcessorsPath: %v", err)
	}
	if ff.NumComponents() != 2 {
		t.Errorf("first-fit components = %d, want 2", ff.NumComponents())
	}
	m := &repro.Machine{Processors: 4, Speed: 2, BusBandwidth: 4}
	met, err := repro.EvaluateTree(m, tr, a.Cut)
	if err != nil {
		t.Fatalf("EvaluateTree: %v", err)
	}
	if met.Components != a.NumComponents() {
		t.Errorf("metrics components %d != partition %d", met.Components, a.NumComponents())
	}
	if math.Abs(met.TotalTraffic-a.CutWeight) > 1e-9 {
		t.Errorf("metrics traffic %v != cut weight %v", met.TotalTraffic, a.CutWeight)
	}
}

// TestFacadeMalformedPaths: BandwidthInstrumented and TradeoffCurve reach
// the core solver without the engine, so they check their path themselves.
// Each malformed path must come back as a graph sentinel error, never a
// panic.
func TestFacadeMalformedPaths(t *testing.T) {
	calls := []struct {
		name string
		run  func(p *repro.Path) error
	}{
		{"BandwidthInstrumented", func(p *repro.Path) error {
			_, _, err := repro.BandwidthInstrumented(p, 2)
			return err
		}},
		{"TradeoffCurve", func(p *repro.Path) error {
			_, err := repro.TradeoffCurve(p, []float64{2, 3})
			return err
		}},
	}
	for _, c := range calls {
		for _, col := range graphtest.MalformedGraphs() {
			if col.Path == nil {
				continue
			}
			t.Run(c.name+"/"+col.Name, func(t *testing.T) {
				defer func() {
					if v := recover(); v != nil {
						t.Fatalf("panic: %v", v)
					}
				}()
				if err := c.run(col.Path); !graphtest.IsGraphError(err) {
					t.Errorf("err = %v, want a graph validation error", err)
				}
			})
		}
	}
}
