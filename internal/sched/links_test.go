package sched

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/workload"
)

func TestLinksValidation(t *testing.T) {
	p, _ := graph.NewPath([]float64{1, 1}, []float64{1})
	if _, err := SimulatePath(Config{Machine: machine(2), Rounds: 1, Links: -1}, p, []int{0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative links: %v", err)
	}
	// Links: 0 defaults to 1 (shared bus) and must match Links: 1 exactly.
	a, err := SimulatePath(Config{Machine: machine(2), Rounds: 2}, p, []int{0})
	if err != nil {
		t.Fatalf("default links: %v", err)
	}
	b, err := SimulatePath(Config{Machine: machine(2), Rounds: 2, Links: 1}, p, []int{0})
	if err != nil {
		t.Fatalf("links=1: %v", err)
	}
	if *a != *b {
		t.Errorf("default %+v != links=1 %+v", a, b)
	}
}

func TestCrossbarParallelizesTransfers(t *testing.T) {
	// Two components exchange two messages of size 4 each way. On a single
	// bus they serialize (finish at 10+4+4=18); on a 2-link crossbar both
	// ship concurrently (finish at 14).
	p, _ := graph.NewPath([]float64{10, 10}, []float64{4})
	bus, err := SimulatePath(Config{Machine: machine(2), Rounds: 1, Links: 1}, p, []int{0})
	if err != nil {
		t.Fatalf("bus: %v", err)
	}
	xbar, err := SimulatePath(Config{Machine: machine(2), Rounds: 1, Links: 2}, p, []int{0})
	if err != nil {
		t.Fatalf("crossbar: %v", err)
	}
	if bus.Makespan != 18 {
		t.Errorf("bus makespan = %v, want 18", bus.Makespan)
	}
	if xbar.Makespan != 14 {
		t.Errorf("crossbar makespan = %v, want 14", xbar.Makespan)
	}
	if xbar.BusBusy != bus.BusBusy {
		t.Errorf("aggregate transfer time should not change: %v vs %v", xbar.BusBusy, bus.BusBusy)
	}
	if xbar.BusUtilization > bus.BusUtilization {
		t.Errorf("per-link utilization should drop with more links")
	}
}

// Property: makespan is monotone non-increasing in the number of links, and
// saturates once links cover all simultaneous transfers.
func TestLinksMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := workload.NewRNG(seed)
		n := 4 + r.Intn(30)
		p := workload.RandomPath(r, n, workload.UniformWeights(1, 10), workload.UniformWeights(1, 10))
		pp, _, err := core.Bandwidth(context.Background(), p, r.Uniform(12, 50))
		if err != nil {
			return true
		}
		m := &arch.Machine{Processors: n, Speed: 10, BusBandwidth: 5}
		prev := math.Inf(1)
		for _, links := range []int{1, 2, 4, 1 << 20} {
			res, err := SimulatePath(Config{Machine: m, Rounds: 3, Links: links}, p, pp.Cut)
			if err != nil {
				return false
			}
			if res.Makespan > prev+1e-9 {
				return false
			}
			prev = res.Makespan
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestContentionFreeLowerBound(t *testing.T) {
	// With unlimited links the makespan equals rounds of (compute + one
	// exchange) on the critical component chain; in particular it is at
	// least compute and at most the bus-serialized makespan.
	r := workload.NewRNG(17)
	p := workload.RandomPath(r, 40, workload.UniformWeights(5, 15), workload.UniformWeights(5, 50))
	pp, _, err := core.Bandwidth(context.Background(), p, 80)
	if err != nil {
		t.Fatalf("Bandwidth: %v", err)
	}
	m := &arch.Machine{Processors: 40, Speed: 10, BusBandwidth: 2}
	bus, err := SimulatePath(Config{Machine: m, Rounds: 4, Links: 1}, p, pp.Cut)
	if err != nil {
		t.Fatalf("bus: %v", err)
	}
	free, err := SimulatePath(Config{Machine: m, Rounds: 4, Links: 1 << 20}, p, pp.Cut)
	if err != nil {
		t.Fatalf("free: %v", err)
	}
	if free.Makespan > bus.Makespan {
		t.Errorf("contention-free %v slower than bus %v", free.Makespan, bus.Makespan)
	}
	met, err := arch.EvaluatePath(m, p, pp.Cut)
	if err != nil {
		t.Fatalf("EvaluatePath: %v", err)
	}
	if free.Makespan < met.ComputeMakespan*4-1e-9 {
		t.Errorf("contention-free makespan %v below compute bound %v", free.Makespan, met.ComputeMakespan*4)
	}
}
