package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fm"
	"repro/internal/graph"
	"repro/internal/linearize"
	"repro/internal/logicsim"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file regenerates the §3 application studies (DESIGN.md APP-DES and
// APP-RT): distributed discrete-event logic simulation and real-time
// pipelines, comparing the paper's bandwidth-minimal partition against an
// equal-blocks baseline under the shared-bus execution model.

// DESRow is one circuit study result.
type DESRow struct {
	Circuit    string
	Gates      int
	Components int
	// OptTraffic and NaiveTraffic are cross-processor message weights of the
	// bandwidth-minimal vs equal-blocks partitions.
	OptTraffic, NaiveTraffic float64
	// OptMakespan and NaiveMakespan come from the bus-contention simulator.
	OptMakespan, NaiveMakespan float64
	// NaiveFeasible reports whether the equal-blocks cut even satisfies the
	// load bound K; when it does not, its lower traffic is bought by
	// overloading a processor.
	NaiveFeasible bool
	// FMTraffic is the cut weight of a Fiduccia–Mattheyses k-way partition
	// of the ORIGINAL process graph (no linearization) at the same load
	// bound — the §3 "heuristic solutions" baseline. −1 when the heuristic
	// could not balance.
	FMTraffic float64
}

// EqualBlocksCut cuts a path into the given number of equal-length blocks:
// the naive baseline the §3 studies compare bandwidth minimization against.
func EqualBlocksCut(p *graph.Path, blocks int) []int {
	var cut []int
	for b := 1; b < blocks; b++ {
		e := b*p.Len()/blocks - 1
		if e >= 0 && e < p.NumEdges() && (len(cut) == 0 || cut[len(cut)-1] < e) {
			cut = append(cut, e)
		}
	}
	return cut
}

// CircuitStudy is the §3 pipeline run on one circuit.
type CircuitStudy struct {
	Profile *logicsim.Profile
	// Graph is the process graph derived from Profile.
	Graph *graph.Graph
	// Banding is Graph's BFS linearization, nil when Graph is a ring that
	// converted to Path exactly.
	Banding *linearize.Banding
	Path    *graph.Path
	// K is the load bound; Opt is the bandwidth-minimal partition under it
	// and Naive the equal-blocks cut with as many components.
	K     float64
	Opt   *core.PathPartition
	Naive []int
	// OptRun and NaiveRun replay Opt.Cut and Naive on the bus model.
	OptRun, NaiveRun *sched.Result
}

// StudyCircuit profiles circ for the given cycles under stim, derives its
// process graph, linearizes it, partitions it both ways at a bound sized to
// use roughly procs processors, and replays both partitions for 3 rounds on
// the bus model.
func StudyCircuit(circ *logicsim.Circuit, stim logicsim.Stimulus, cycles, procs int) (*CircuitStudy, error) {
	prof, err := logicsim.Run(circ, cycles, stim)
	if err != nil {
		return nil, err
	}
	pg, err := logicsim.ProcessGraph(circ, prof)
	if err != nil {
		return nil, err
	}
	st := &CircuitStudy{Profile: prof, Graph: pg}
	// Linearize: rings convert exactly, general graphs via BFS bands.
	if p, _, ok := linearize.RingToPath(pg); ok {
		st.Path = p
	} else {
		if st.Banding, err = linearize.BFSBands(pg, 0); err != nil {
			return nil, err
		}
		st.Path = st.Banding.Path
	}
	// Bound: spread total load over about procs components.
	st.K = st.Path.TotalNodeWeight()/float64(procs) + st.Path.MaxNodeWeight()
	if st.Opt, _, err = core.Bandwidth(context.Background(), st.Path, st.K); err != nil {
		return nil, fmt.Errorf("bandwidth: %w", err)
	}
	// The naive cut may violate K; that is part of the point — replay it
	// anyway. Bandwidth minimization does not bound the component count, so
	// size the simulated machine to the path; procs only sizes K above.
	st.Naive = EqualBlocksCut(st.Path, st.Opt.NumComponents())
	cfg := sched.Config{Machine: &arch.Machine{Processors: st.Path.Len(), Speed: 1000, BusBandwidth: 500}, Rounds: 3}
	if st.OptRun, err = sched.SimulatePath(cfg, st.Path, st.Opt.Cut); err != nil {
		return nil, fmt.Errorf("simulate opt: %w", err)
	}
	if st.NaiveRun, err = sched.SimulatePath(cfg, st.Path, st.Naive); err != nil {
		return nil, fmt.Errorf("simulate naive: %w", err)
	}
	return st, nil
}

// RunDES runs StudyCircuit on each evaluation circuit and adds the FM
// baseline on the unlinearized process graph.
func RunDES(procs, cycles int) ([]DESRow, error) {
	adder, errA := logicsim.RippleCarryAdder(32)
	ring, errJ := logicsim.JohnsonCounter(64)
	lfsr, errL := logicsim.LFSR(48, []int{47, 46, 20, 19})
	if err := errors.Join(errA, errJ, errL); err != nil {
		return nil, err
	}
	rng := workload.NewRNG(5)
	circuits := []struct {
		name string
		circ *logicsim.Circuit
		stim logicsim.Stimulus
	}{
		{"adder-chain-32b", adder.Circuit, func(cycle, inputIdx int) bool { return rng.Float64() < 0.5 }},
		{"johnson-ring-64", ring, nil},
		{"lfsr-48", lfsr.Circuit, lfsr.SeedStimulus()},
	}
	var rows []DESRow
	for _, c := range circuits {
		st, err := StudyCircuit(c.circ, c.stim, cycles, procs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		optTraffic, _ := st.Path.CutWeight(st.Opt.Cut)
		naiveTraffic, _ := st.Path.CutWeight(st.Naive)
		// §3 heuristic baseline: FM directly on the process graph, with the
		// conventional 10% imbalance tolerance (recursive bisection cannot
		// generally hit a zero-slack bound).
		fmTraffic := -1.0
		if part, err := fm.Partition(st.Graph, st.Opt.NumComponents(), 1.1*st.K, 1); err == nil {
			if wgt, err := fm.CutWeight(st.Graph, part); err == nil {
				fmTraffic = wgt
			}
		}
		rows = append(rows, DESRow{
			Circuit:       c.name,
			Gates:         len(c.circ.Gates),
			Components:    st.Opt.NumComponents(),
			OptTraffic:    optTraffic,
			NaiveTraffic:  naiveTraffic,
			OptMakespan:   st.OptRun.Makespan,
			NaiveMakespan: st.NaiveRun.Makespan,
			NaiveFeasible: core.CheckPathFeasible(st.Path, st.Naive, st.K) == nil,
			FMTraffic:     fmTraffic,
		})
	}
	return rows, nil
}

// RenderDES writes the circuit study table.
func RenderDES(w io.Writer, rows []DESRow) error {
	t := stats.NewTable("circuit", "gates", "components", "traffic(opt)", "traffic(equal)", "traffic(FM)", "reduction", "makespan(opt)", "makespan(equal)", "equal feasible")
	for _, r := range rows {
		red := "-"
		if r.NaiveTraffic > 0 {
			red = fmt.Sprintf("%.1f%%", 100*(1-r.OptTraffic/r.NaiveTraffic))
		}
		fmCell := "-"
		if r.FMTraffic >= 0 {
			fmCell = fmt.Sprintf("%.0f", r.FMTraffic)
		}
		t.AddRow(r.Circuit, r.Gates, r.Components, r.OptTraffic, r.NaiveTraffic, fmCell, red, r.OptMakespan, r.NaiveMakespan, r.NaiveFeasible)
	}
	return t.Render(w)
}

// RTRow is one real-time pipeline study result.
type RTRow struct {
	Stages      int
	Deadline    float64
	Components  int
	MinprocsRef int
	CutWeight   float64
	StageTime   float64
	Throughput  float64
	Meets       bool
}

// RunRT plans deadline-constrained pipelines of increasing length (the
// Figure 3 flow) and reports partition quality.
func RunRT(seed uint64) ([]RTRow, error) {
	rng := workload.NewRNG(seed)
	machine := &arch.Machine{Processors: 1024, Speed: 100, BusBandwidth: 1000}
	var rows []RTRow
	for _, stages := range []int{16, 64, 256} {
		for _, deadline := range []float64{2, 4, 8} {
			p := workload.Pipeline(rng, stages,
				workload.UniformWeights(20, 120),
				workload.UniformWeights(1, 50), 0.2, 10)
			spec := &pipeline.Spec{Tasks: p, Deadline: deadline}
			plan, err := pipeline.Build(spec, machine)
			if err != nil {
				return nil, fmt.Errorf("stages=%d deadline=%v: %w", stages, deadline, err)
			}
			minProcs, err := pipeline.MinimalProcessors(spec, machine)
			if err != nil {
				return nil, err
			}
			rows = append(rows, RTRow{
				Stages:      stages,
				Deadline:    deadline,
				Components:  plan.Partition.NumComponents(),
				MinprocsRef: minProcs,
				CutWeight:   plan.Partition.CutWeight,
				StageTime:   plan.StageTime,
				Throughput:  plan.Throughput,
				Meets:       plan.MeetsDeadline(spec),
			})
		}
	}
	return rows, nil
}

// RenderRT writes the pipeline study table.
func RenderRT(w io.Writer, rows []RTRow) error {
	t := stats.NewTable("stages", "deadline", "components", "min procs", "cut weight", "stage time", "throughput", "meets deadline")
	for _, r := range rows {
		t.AddRow(r.Stages, r.Deadline, r.Components, r.MinprocsRef, r.CutWeight, r.StageTime, r.Throughput, r.Meets)
	}
	return t.Render(w)
}
