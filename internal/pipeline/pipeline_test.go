package pipeline

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/workload"
)

func machine() *arch.Machine {
	return &arch.Machine{Processors: 16, Speed: 10, BusBandwidth: 100}
}

func spec(t *testing.T, nodeW, edgeW []float64, deadline float64) *Spec {
	t.Helper()
	p, err := graph.NewPath(nodeW, edgeW)
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	return &Spec{Tasks: p, Deadline: deadline}
}

func TestSpecValidate(t *testing.T) {
	if err := (&Spec{}).Validate(); !errors.Is(err, ErrBadSpec) {
		t.Errorf("nil tasks: %v", err)
	}
	s := spec(t, []float64{1, 2}, []float64{3}, 0)
	if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Errorf("deadline 0: %v", err)
	}
}

func TestBuildMeetsDeadline(t *testing.T) {
	// 8 stages of work 50 each at speed 10 → 5 time units per stage.
	// Deadline 12 → K = 120 work units → at most 2 stages per processor.
	s := spec(t,
		[]float64{50, 50, 50, 50, 50, 50, 50, 50},
		[]float64{10, 1, 10, 1, 10, 1, 10},
		12)
	plan, err := Build(s, machine())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !plan.MeetsDeadline(s) {
		t.Errorf("plan misses deadline: stage time %v > %v", plan.StageTime, s.Deadline)
	}
	if plan.Partition.NumComponents() != 4 {
		t.Errorf("components = %d, want 4 (pairs)", plan.Partition.NumComponents())
	}
	// The cheap edges (weight 1) are the optimal cuts.
	if plan.Partition.CutWeight != 3 {
		t.Errorf("cut weight = %v (cut %v), want 3", plan.Partition.CutWeight, plan.Partition.Cut)
	}
	if plan.Throughput <= 0 {
		t.Errorf("throughput = %v, want > 0", plan.Throughput)
	}
	if len(plan.Mapping.Processor) != plan.Partition.NumComponents() {
		t.Errorf("mapping covers %d components, want %d",
			len(plan.Mapping.Processor), plan.Partition.NumComponents())
	}
}

func TestBuildDeadlineUnachievable(t *testing.T) {
	// One stage needs 100/10 = 10 time units; deadline 5 is impossible.
	s := spec(t, []float64{100, 10}, []float64{1}, 5)
	if _, err := Build(s, machine()); !errors.Is(err, ErrDeadline) {
		t.Errorf("error = %v, want ErrDeadline", err)
	}
}

func TestBuildTooFewProcessors(t *testing.T) {
	s := spec(t, []float64{50, 50, 50, 50}, []float64{1, 1, 1}, 5)
	m := &arch.Machine{Processors: 2, Speed: 10, BusBandwidth: 100}
	// Deadline 5 → K=50 → 4 components needed, only 2 processors.
	if _, err := Build(s, m); !errors.Is(err, arch.ErrTooFewProcessors) {
		t.Errorf("error = %v, want ErrTooFewProcessors", err)
	}
}

func TestMinimalProcessors(t *testing.T) {
	s := spec(t, []float64{50, 50, 50, 50, 50, 50}, []float64{9, 9, 9, 9, 9}, 12)
	n, err := MinimalProcessors(s, machine())
	if err != nil {
		t.Fatalf("MinimalProcessors: %v", err)
	}
	if n != 3 {
		t.Errorf("MinimalProcessors = %d, want 3 (120 units per processor)", n)
	}
	bad := spec(t, []float64{200}, nil, 1)
	if _, err := MinimalProcessors(bad, machine()); !errors.Is(err, ErrDeadline) {
		t.Errorf("error = %v, want ErrDeadline", err)
	}
}

func TestBuildUsesNoMoreTrafficThanMinimalSplit(t *testing.T) {
	// Build's bandwidth-minimal plan never carries more cut weight than the
	// pure first-fit split at the same K.
	r := workload.NewRNG(77)
	for trial := 0; trial < 50; trial++ {
		p := workload.RandomPath(r, 40, workload.UniformWeights(10, 50), workload.UniformWeights(1, 100))
		s := &Spec{Tasks: p, Deadline: 15}
		m := &arch.Machine{Processors: 40, Speed: 10, BusBandwidth: 100}
		plan, err := Build(s, m)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		ff, _, err := core.MinProcessorsPath(context.Background(), p, s.Deadline*m.Speed)
		if err != nil {
			t.Fatalf("MinProcessorsPath: %v", err)
		}
		ffWeight, _ := p.CutWeight(ff.Cut)
		if plan.Partition.CutWeight > ffWeight+1e-9 {
			t.Fatalf("bandwidth plan weight %v exceeds first-fit weight %v",
				plan.Partition.CutWeight, ffWeight)
		}
	}
}

func TestSpecValidateBadTasks(t *testing.T) {
	bad := &Spec{Tasks: &graph.Path{NodeW: []float64{1, 2}, EdgeW: []float64{1, 2}}, Deadline: 1}
	if err := bad.Validate(); !errors.Is(err, graph.ErrBadShape) {
		t.Errorf("bad tasks: %v", err)
	}
	inf := spec(t, []float64{1}, nil, math.Inf(1))
	if err := inf.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Errorf("inf deadline: %v", err)
	}
}

func TestBuildBadMachine(t *testing.T) {
	s := spec(t, []float64{1, 2}, []float64{1}, 5)
	m := &arch.Machine{Processors: 0, Speed: 1, BusBandwidth: 1}
	if _, err := Build(s, m); !errors.Is(err, arch.ErrBadMachine) {
		t.Errorf("bad machine: %v", err)
	}
	if _, err := MinimalProcessors(s, m); !errors.Is(err, arch.ErrBadMachine) {
		t.Errorf("minimal bad machine: %v", err)
	}
	if _, err := MinimalProcessors(&Spec{}, machine()); !errors.Is(err, ErrBadSpec) {
		t.Errorf("minimal bad spec: %v", err)
	}
	if _, err := Build(&Spec{}, machine()); !errors.Is(err, ErrBadSpec) {
		t.Errorf("build bad spec: %v", err)
	}
}
