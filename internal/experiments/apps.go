package experiments

import (
	"context"
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

// equalBlocksCut cuts a path into the given number of equal-length blocks.
func equalBlocksCut(p *graph.Path, blocks int) []int {
	var cut []int
	for b := 1; b < blocks; b++ {
		e := b*p.Len()/blocks - 1
		if e >= 0 && e < p.NumEdges() && (len(cut) == 0 || cut[len(cut)-1] < e) {
			cut = append(cut, e)
		}
	}
	return cut
}

// RunDES builds each evaluation circuit, profiles it, derives the process
// graph, linearizes it, partitions it both ways at a bound sized to use
// roughly the given number of processors, and replays both partitions on the
// bus model.
func RunDES(procs, cycles int) ([]DESRow, error) {
	type build struct {
		name string
		make func() (*logicsim.Circuit, logicsim.Stimulus, error)
	}
	rng := workload.NewRNG(5)
	builds := []build{
		{"adder-chain-32b", func() (*logicsim.Circuit, logicsim.Stimulus, error) {
			ad, err := logicsim.RippleCarryAdder(32)
			if err != nil {
				return nil, nil, err
			}
			stim := func(cycle, inputIdx int) bool { return rng.Float64() < 0.5 }
			return ad.Circuit, stim, nil
		}},
		{"johnson-ring-64", func() (*logicsim.Circuit, logicsim.Stimulus, error) {
			c, err := logicsim.JohnsonCounter(64)
			return c, nil, err
		}},
		{"lfsr-48", func() (*logicsim.Circuit, logicsim.Stimulus, error) {
			l, err := logicsim.LFSR(48, []int{47, 46, 20, 19})
			if err != nil {
				return nil, nil, err
			}
			return l.Circuit, l.SeedStimulus(), nil
		}},
	}
	var rows []DESRow
	for _, b := range builds {
		circ, stim, err := b.make()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		prof, err := logicsim.Run(circ, cycles, stim)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		pg, err := logicsim.ProcessGraph(circ, prof)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		// Linearize: rings convert exactly, general graphs via BFS bands.
		var path *graph.Path
		var banding *linearize.Banding
		if p, _, ok := linearize.RingToPath(pg); ok {
			path = p
		} else {
			banding, err = linearize.BFSBands(pg, 0)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.name, err)
			}
			path = banding.Path
		}
		// Bound: spread total load over about procs components.
		k := path.TotalNodeWeight()/float64(procs) + path.MaxNodeWeight()
		opt, _, err := core.Bandwidth(context.Background(), path, k)
		if err != nil {
			return nil, fmt.Errorf("%s: bandwidth: %w", b.name, err)
		}
		blocks := opt.NumComponents()
		naive := equalBlocksCut(path, blocks)
		// The naive cut may violate K; that is part of the point — measure
		// its traffic and makespan anyway. Bandwidth minimization does not
		// bound the component count, so size the simulated machine to the
		// path; procs only sizes the load bound K above.
		machine := &arch.Machine{Processors: path.Len(), Speed: 1000, BusBandwidth: 500}
		optTraffic, _ := path.CutWeight(opt.Cut)
		naiveTraffic, _ := path.CutWeight(naive)
		cfg := sched.Config{Machine: machine, Rounds: 3}
		optRes, err := sched.SimulatePath(cfg, path, opt.Cut)
		if err != nil {
			return nil, fmt.Errorf("%s: simulate opt: %w", b.name, err)
		}
		naiveRes, err := sched.SimulatePath(cfg, path, naive)
		if err != nil {
			return nil, fmt.Errorf("%s: simulate naive: %w", b.name, err)
		}
		// §3 heuristic baseline: FM directly on the process graph, with the
		// conventional 10% imbalance tolerance (recursive bisection cannot
		// generally hit a zero-slack bound).
		fmTraffic := -1.0
		if part, err := fm.Partition(pg, blocks, 1.1*k, 1); err == nil {
			if wgt, err := fm.CutWeight(pg, part); err == nil {
				fmTraffic = wgt
			}
		}
		rows = append(rows, DESRow{
			Circuit:       b.name,
			Gates:         len(circ.Gates),
			Components:    blocks,
			OptTraffic:    optTraffic,
			NaiveTraffic:  naiveTraffic,
			OptMakespan:   optRes.Makespan,
			NaiveMakespan: naiveRes.Makespan,
			NaiveFeasible: core.CheckPathFeasible(path, naive, k) == nil,
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
