package sched

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

func machine(procs int) *arch.Machine {
	return &arch.Machine{Processors: procs, Speed: 1, BusBandwidth: 1}
}

func TestSimulateConfigErrors(t *testing.T) {
	p, _ := graph.NewPath([]float64{1, 1}, []float64{1})
	if _, err := SimulatePath(Config{Machine: nil, Rounds: 1}, p, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil machine: %v", err)
	}
	if _, err := SimulatePath(Config{Machine: machine(2), Rounds: 0}, p, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("rounds=0: %v", err)
	}
	if _, err := SimulatePath(Config{Machine: machine(1), Rounds: 1}, p, []int{0}); !errors.Is(err, arch.ErrTooFewProcessors) {
		t.Errorf("too few processors: %v", err)
	}
}

func TestSimulateSingleComponent(t *testing.T) {
	p, _ := graph.NewPath([]float64{3, 4, 5}, []float64{1, 1})
	res, err := SimulatePath(Config{Machine: machine(1), Rounds: 4}, p, nil)
	if err != nil {
		t.Fatalf("SimulatePath: %v", err)
	}
	// 4 rounds of 12 work units at speed 1, no messages.
	if res.Makespan != 48 {
		t.Errorf("Makespan = %v, want 48", res.Makespan)
	}
	if res.Messages != 0 || res.BusBusy != 0 {
		t.Errorf("expected no traffic: %+v", res)
	}
	if res.ComputeTime != 48 {
		t.Errorf("ComputeTime = %v, want 48", res.ComputeTime)
	}
}

func TestSimulateTwoComponentsHandComputed(t *testing.T) {
	// Components of load 10 and 10, one cut edge of weight 4, speed 1,
	// bandwidth 1, 1 round. Both finish compute at t=10, two transfers of
	// 4 serialize: done at 14 and 18. Round completes for the later receiver
	// at t=18.
	p, _ := graph.NewPath([]float64{10, 10}, []float64{4})
	res, err := SimulatePath(Config{Machine: machine(2), Rounds: 1}, p, []int{0})
	if err != nil {
		t.Fatalf("SimulatePath: %v", err)
	}
	if res.Makespan != 18 {
		t.Errorf("Makespan = %v, want 18", res.Makespan)
	}
	if res.Messages != 2 {
		t.Errorf("Messages = %d, want 2", res.Messages)
	}
	if res.BusBusy != 8 {
		t.Errorf("BusBusy = %v, want 8", res.BusBusy)
	}
	// Latencies: first transfer 4, second 8 → mean 6.
	if math.Abs(res.MeanMessageLatency-6) > 1e-9 {
		t.Errorf("MeanMessageLatency = %v, want 6", res.MeanMessageLatency)
	}
}

func TestSimulateRoundsScaleLinearly(t *testing.T) {
	p, _ := graph.NewPath([]float64{10, 10}, []float64{4})
	one, err := SimulatePath(Config{Machine: machine(2), Rounds: 1}, p, []int{0})
	if err != nil {
		t.Fatalf("rounds=1: %v", err)
	}
	five, err := SimulatePath(Config{Machine: machine(2), Rounds: 5}, p, []int{0})
	if err != nil {
		t.Fatalf("rounds=5: %v", err)
	}
	if five.Makespan <= one.Makespan*4 {
		t.Errorf("5-round makespan %v should be ~5x 1-round %v", five.Makespan, one.Makespan)
	}
	if five.Messages != 10 {
		t.Errorf("Messages = %d, want 10", five.Messages)
	}
}

func TestSimulateLowerBandwidthCutWins(t *testing.T) {
	// The paper's core premise: among balanced partitions, the one with the
	// lighter cut finishes sooner under bus contention.
	r := workload.NewRNG(7)
	p := workload.RandomPath(r, 64, workload.UniformWeights(8, 12), workload.UniformWeights(1, 100))
	k := 100.0
	m := &arch.Machine{Processors: 32, Speed: 10, BusBandwidth: 2}
	cfg := Config{Machine: m, Rounds: 5}

	opt, _, err := core.Bandwidth(context.Background(), p, k)
	if err != nil {
		t.Fatalf("Bandwidth: %v", err)
	}
	naiveCut := equalBlocks(p, len(opt.Cut))
	optWeight, _ := p.CutWeight(opt.Cut)
	naiveWeight, _ := p.CutWeight(naiveCut)
	if optWeight >= naiveWeight {
		t.Skipf("random instance degenerate: optimal %v vs naive %v", optWeight, naiveWeight)
	}
	optRes, err := SimulatePath(cfg, p, opt.Cut)
	if err != nil {
		t.Fatalf("simulate optimal: %v", err)
	}
	naiveRes, err := SimulatePath(cfg, p, naiveCut)
	if err != nil {
		t.Fatalf("simulate naive: %v", err)
	}
	if optRes.BusBusy >= naiveRes.BusBusy {
		t.Errorf("optimal cut bus time %v should beat naive %v", optRes.BusBusy, naiveRes.BusBusy)
	}
	if optRes.Makespan > naiveRes.Makespan {
		t.Errorf("optimal cut makespan %v should not exceed naive %v", optRes.Makespan, naiveRes.Makespan)
	}
}

// equalBlocks cuts the path into len(cut)+1 equal-length blocks, ignoring
// weights — the naive partition a non-optimizing system would use.
func equalBlocks(p *graph.Path, cuts int) []int {
	if cuts <= 0 {
		return nil
	}
	blocks := cuts + 1
	var out []int
	for b := 1; b <= cuts; b++ {
		e := b*p.Len()/blocks - 1
		if e >= 0 && e < p.NumEdges() {
			if len(out) == 0 || out[len(out)-1] < e {
				out = append(out, e)
			}
		}
	}
	return out
}

func TestSimulateTreePartition(t *testing.T) {
	r := workload.NewRNG(21)
	tr := workload.RandomTree(r, 40, workload.UniformWeights(5, 15), workload.UniformWeights(1, 50))
	pt, _, err := core.PartitionTree(context.Background(), tr, 60)
	if err != nil {
		t.Fatalf("PartitionTree: %v", err)
	}
	res, err := SimulateTree(Config{Machine: machine(40), Rounds: 3}, tr, pt.Cut)
	if err != nil {
		t.Fatalf("SimulateTree: %v", err)
	}
	if res.Makespan <= 0 {
		t.Errorf("Makespan = %v, want > 0", res.Makespan)
	}
	if res.Messages != 2*len(pt.Cut)*3 {
		t.Errorf("Messages = %d, want %d", res.Messages, 2*len(pt.Cut)*3)
	}
	if res.BusUtilization < 0 || res.BusUtilization > 1 {
		t.Errorf("BusUtilization = %v out of [0,1]", res.BusUtilization)
	}
}

func TestSimulateMakespanLowerBound(t *testing.T) {
	// Makespan can never beat compute time of the heaviest component times
	// rounds, nor total bus demand.
	r := workload.NewRNG(33)
	for trial := 0; trial < 20; trial++ {
		p := workload.RandomPath(r, 30, workload.UniformWeights(1, 10), workload.UniformWeights(1, 10))
		pp, _, err := core.Bandwidth(context.Background(), p, 25)
		if err != nil {
			continue
		}
		m := machine(30)
		rounds := 3
		res, err := SimulatePath(Config{Machine: m, Rounds: rounds}, p, pp.Cut)
		if err != nil {
			t.Fatalf("SimulatePath: %v", err)
		}
		met, err := arch.EvaluatePath(m, p, pp.Cut)
		if err != nil {
			t.Fatalf("EvaluatePath: %v", err)
		}
		lb := met.ComputeMakespan * float64(rounds)
		if res.Makespan < lb-1e-9 {
			t.Fatalf("makespan %v below compute lower bound %v", res.Makespan, lb)
		}
		if res.Makespan < res.BusBusy-1e-9 {
			t.Fatalf("makespan %v below bus busy %v", res.Makespan, res.BusBusy)
		}
	}
}

func TestSimulateZeroWeightEdgesAndNodes(t *testing.T) {
	p, _ := graph.NewPath([]float64{0, 5, 0}, []float64{0, 0})
	res, err := SimulatePath(Config{Machine: machine(3), Rounds: 2}, p, []int{0, 1})
	if err != nil {
		t.Fatalf("SimulatePath: %v", err)
	}
	if res.Makespan != 10 {
		t.Errorf("Makespan = %v, want 10 (two rounds of the weight-5 task)", res.Makespan)
	}
}
