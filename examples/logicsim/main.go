// Distributed discrete-event simulation (§3): profile a gate-level circuit,
// derive its process graph, linearize it, and compare the paper's
// bandwidth-minimal partition against equal blocks under bus contention.
//
//	go run ./examples/logicsim
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/linearize"
	"repro/internal/logicsim"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	// A 64-bit ripple-carry adder exercised with random operands: the
	// canonical chain-structured circuit of §3.
	ad, err := logicsim.RippleCarryAdder(64)
	if err != nil {
		log.Fatal(err)
	}
	rng := workload.NewRNG(7)
	stim := func(cycle, inputIdx int) bool { return rng.Float64() < 0.5 }
	prof, err := logicsim.Run(ad.Circuit, 500, stim)
	if err != nil {
		log.Fatal(err)
	}
	var evals int64
	for _, e := range prof.Evaluations {
		evals += e
	}
	fmt.Printf("profiled %d gates over %d cycles: %d evaluations\n",
		len(ad.Circuit.Gates), prof.Cycles, evals)

	pg, err := logicsim.ProcessGraph(ad.Circuit, prof)
	if err != nil {
		log.Fatal(err)
	}
	banding, err := linearize.BFSBands(pg, ad.A[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("process graph: %d vertices, %d wires → %d BFS bands\n",
		pg.Len(), len(pg.Edges), banding.Path.Len())

	const procs = 8
	path := banding.Path
	k := path.TotalNodeWeight()/procs + path.MaxNodeWeight()
	part, err := repro.Bandwidth(path, k)
	if err != nil {
		log.Fatal(err)
	}
	naive := equalBlocks(path, part.NumComponents())
	naiveW, _ := path.CutWeight(naive)
	fmt.Printf("bandwidth-minimal partition: %d components, %0.f messages cross processors\n",
		part.NumComponents(), part.CutWeight)
	fmt.Printf("equal-blocks baseline:       %d components, %0.f messages cross processors\n",
		len(naive)+1, naiveW)

	// Expand the super-graph cut back to the original circuit wires.
	origCut, err := banding.ProjectCut(pg, part.Cut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("projected back to the circuit: %d wires cross processors\n", len(origCut))

	m := &arch.Machine{Processors: path.Len(), Speed: 2000, BusBandwidth: 800}
	cfg := sched.Config{Machine: m, Rounds: 4}
	opt, err := sched.SimulatePath(cfg, path, part.Cut)
	if err != nil {
		log.Fatal(err)
	}
	base, err := sched.SimulatePath(cfg, path, naive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bus replay: optimal makespan %.3f (bus busy %.3f) vs equal blocks %.3f (bus busy %.3f)\n",
		opt.Makespan, opt.BusBusy, base.Makespan, base.BusBusy)
}

func equalBlocks(p *graph.Path, blocks int) []int {
	var cut []int
	for b := 1; b < blocks; b++ {
		e := b*p.Len()/blocks - 1
		if e >= 0 && e < p.NumEdges() && (len(cut) == 0 || cut[len(cut)-1] < e) {
			cut = append(cut, e)
		}
	}
	return cut
}
