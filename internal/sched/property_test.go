package sched

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// Property: for arbitrary feasible partitions, the simulator respects its
// invariants — message conservation, compute accounting, and the two
// makespan lower bounds (heaviest component × rounds, total bus demand).
func TestSimulateInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := workload.NewRNG(seed)
		n := 2 + r.Intn(60)
		p := workload.RandomPath(r, n, workload.UniformWeights(1, 10), workload.UniformWeights(0, 10))
		k := r.Uniform(10, 60)
		pp, _, err := core.Bandwidth(context.Background(), p, k)
		if err != nil {
			return true // infeasible instance; nothing to simulate
		}
		rounds := 1 + r.Intn(4)
		m := &arch.Machine{
			Processors:   n,
			Speed:        r.Uniform(0.5, 100),
			BusBandwidth: r.Uniform(0.5, 100),
		}
		res, err := SimulatePath(Config{Machine: m, Rounds: rounds}, p, pp.Cut)
		if err != nil {
			return false
		}
		if res.Messages != 2*len(pp.Cut)*rounds {
			return false
		}
		wantCompute := p.TotalNodeWeight() / m.Speed * float64(rounds)
		if diff := res.ComputeTime - wantCompute; diff > 1e-6 || diff < -1e-6 {
			return false
		}
		met, err := arch.EvaluatePath(m, p, pp.Cut)
		if err != nil {
			return false
		}
		if res.Makespan < met.ComputeMakespan*float64(rounds)-1e-9 {
			return false
		}
		if res.Makespan < res.BusBusy-1e-9 {
			return false
		}
		return res.BusUtilization >= 0 && res.BusUtilization <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: slowing the bus can only increase (or preserve) the makespan.
func TestSimulateBusMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := workload.NewRNG(seed)
		n := 4 + r.Intn(40)
		p := workload.RandomPath(r, n, workload.UniformWeights(1, 10), workload.UniformWeights(1, 10))
		k := r.Uniform(15, 60)
		pp, _, err := core.Bandwidth(context.Background(), p, k)
		if err != nil {
			return true
		}
		fast := &arch.Machine{Processors: n, Speed: 10, BusBandwidth: 100}
		slow := &arch.Machine{Processors: n, Speed: 10, BusBandwidth: 1}
		a, err1 := SimulatePath(Config{Machine: fast, Rounds: 3}, p, pp.Cut)
		b, err2 := SimulatePath(Config{Machine: slow, Rounds: 3}, p, pp.Cut)
		if err1 != nil || err2 != nil {
			return false
		}
		return b.Makespan >= a.Makespan-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
