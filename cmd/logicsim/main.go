// Command logicsim runs the §3 distributed discrete-event simulation study
// end to end for one circuit: build a netlist, profile it with the
// gate-level simulator, derive the process graph, linearize it, partition it
// with bandwidth minimization, and replay both the optimal and an
// equal-blocks partition on the shared-bus machine model.
//
// Usage:
//
//	logicsim -circuit adder   -bits 32  -cycles 200 -procs 8
//	logicsim -circuit johnson -stages 64 -cycles 200 -procs 8
//	logicsim -circuit lfsr    -stages 48 -cycles 200 -procs 8
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/linearize"
	"repro/internal/logicsim"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "logicsim:", err)
		os.Exit(1)
	}
}

func run() error {
	circuit := flag.String("circuit", "adder", "adder | johnson | lfsr")
	bits := flag.Int("bits", 32, "adder width")
	stages := flag.Int("stages", 64, "johnson/lfsr stages")
	cycles := flag.Int("cycles", 200, "simulated clock cycles")
	procs := flag.Int("procs", 8, "target processor count (sizes the load bound K)")
	seed := flag.Uint64("seed", 1, "stimulus seed")
	flag.Parse()
	if *cycles <= 0 {
		return fmt.Errorf("-cycles must be positive (got %d)", *cycles)
	}
	if *procs <= 0 {
		return fmt.Errorf("-procs must be positive (got %d)", *procs)
	}
	if *bits <= 0 || *stages <= 1 {
		return fmt.Errorf("-bits must be positive and -stages > 1 (got %d, %d)", *bits, *stages)
	}

	var circ *logicsim.Circuit
	var stim logicsim.Stimulus
	rng := workload.NewRNG(*seed)
	switch *circuit {
	case "adder":
		ad, err := logicsim.RippleCarryAdder(*bits)
		if err != nil {
			return err
		}
		circ = ad.Circuit
		stim = func(cycle, inputIdx int) bool { return rng.Float64() < 0.5 }
	case "johnson":
		c, err := logicsim.JohnsonCounter(*stages)
		if err != nil {
			return err
		}
		circ = c
	case "lfsr":
		l, err := logicsim.LFSR(*stages, []int{*stages - 1, *stages - 2, *stages / 2, *stages/2 - 1})
		if err != nil {
			return err
		}
		circ = l.Circuit
		stim = l.SeedStimulus()
	default:
		return fmt.Errorf("unknown circuit %q", *circuit)
	}
	fmt.Printf("circuit: %s (%d gates), %d cycles\n", *circuit, len(circ.Gates), *cycles)

	prof, err := logicsim.Run(circ, *cycles, stim)
	if err != nil {
		return err
	}
	var evals int64
	for _, e := range prof.Evaluations {
		evals += e
	}
	fmt.Printf("profile: %d gate evaluations, %d wires with traffic\n", evals, len(prof.Messages))

	pg, err := logicsim.ProcessGraph(circ, prof)
	if err != nil {
		return err
	}
	var path *graph.Path
	if p, _, ok := linearize.RingToPath(pg); ok {
		fmt.Println("linearize: exact ring→path conversion")
		path = p
	} else {
		banding, err := linearize.BFSBands(pg, 0)
		if err != nil {
			return err
		}
		q := banding.Quality(pg)
		fmt.Printf("linearize: BFS banding into %d bands (internal %.0f, adjacent %.0f edge weight)\n",
			banding.Path.Len(), q.InternalWeight, q.AdjacentWeight)
		path = banding.Path
	}

	k := path.TotalNodeWeight()/float64(*procs) + path.MaxNodeWeight()
	part, err := repro.Bandwidth(path, k)
	if err != nil {
		return err
	}
	fmt.Printf("partition: K=%.0f → %d components, cut weight %.0f (bottleneck %.0f)\n",
		k, part.NumComponents(), part.CutWeight, part.Bottleneck)

	naive := equalBlocksCut(path, part.NumComponents())
	naiveW, _ := path.CutWeight(naive)
	fmt.Printf("equal-blocks baseline: cut weight %.0f\n", naiveW)

	m := &arch.Machine{Processors: path.Len(), Speed: 1000, BusBandwidth: 500}
	cfg := sched.Config{Machine: m, Rounds: 3}
	optRes, err := sched.SimulatePath(cfg, path, part.Cut)
	if err != nil {
		return err
	}
	naiveRes, err := sched.SimulatePath(cfg, path, naive)
	if err != nil {
		return err
	}
	fmt.Printf("bus replay (3 rounds): optimal makespan %.2f (bus busy %.2f) vs equal-blocks %.2f (bus busy %.2f)\n",
		optRes.Makespan, optRes.BusBusy, naiveRes.Makespan, naiveRes.BusBusy)
	return nil
}

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
