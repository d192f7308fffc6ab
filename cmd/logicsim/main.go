// Command logicsim runs the §3 distributed discrete-event simulation study
// end to end for one circuit: build a netlist, profile it with the
// gate-level simulator, derive the process graph, linearize it, partition it
// with bandwidth minimization, and replay both the optimal and an
// equal-blocks partition on the shared-bus machine model
// (experiments.StudyCircuit).
//
// Usage:
//
//	logicsim -circuit adder   -bits 32  -cycles 200 -procs 8
//	logicsim -circuit johnson -stages 64 -cycles 200 -procs 8
//	logicsim -circuit lfsr    -stages 48 -cycles 200 -procs 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/logicsim"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args, os.Stdout, os.Stderr)) }

// run is the whole command. args[0] names the program in the usage text.
// The exit status is 0 on success and for -h, 2 when the flags do not parse,
// and 1 for any other error, printed to stderr as "logicsim: <err>".
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	circuit := fs.String("circuit", "adder", "adder | johnson | lfsr")
	bits := fs.Int("bits", 32, "adder width")
	stages := fs.Int("stages", 64, "johnson/lfsr stages")
	cycles := fs.Int("cycles", 200, "simulated clock cycles")
	procs := fs.Int("procs", 8, "target processor count (sizes the load bound K)")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := study(stdout, *circuit, *bits, *stages, *cycles, *procs, *seed); err != nil {
		fmt.Fprintln(stderr, "logicsim:", err)
		return 1
	}
	return 0
}

// study builds the named circuit and prints its study to w.
func study(w io.Writer, circuit string, bits, stages, cycles, procs int, seed uint64) error {
	if cycles <= 0 {
		return fmt.Errorf("-cycles must be positive (got %d)", cycles)
	}
	if procs <= 0 {
		return fmt.Errorf("-procs must be positive (got %d)", procs)
	}
	if bits <= 0 || stages <= 1 {
		return fmt.Errorf("-bits must be positive and -stages > 1 (got %d, %d)", bits, stages)
	}

	var (
		circ *logicsim.Circuit
		stim logicsim.Stimulus
		err  error
	)
	rng := workload.NewRNG(seed)
	switch circuit {
	case "adder":
		var ad *logicsim.Adder
		if ad, err = logicsim.RippleCarryAdder(bits); err == nil {
			circ = ad.Circuit
		}
		stim = func(cycle, inputIdx int) bool { return rng.Float64() < 0.5 }
	case "johnson":
		circ, err = logicsim.JohnsonCounter(stages)
	case "lfsr":
		var l *logicsim.LFSRCircuit
		if l, err = logicsim.LFSR(stages, []int{stages - 1, stages - 2, stages / 2, stages/2 - 1}); err == nil {
			circ, stim = l.Circuit, l.SeedStimulus()
		}
	default:
		err = fmt.Errorf("unknown circuit %q", circuit)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "circuit: %s (%d gates), %d cycles\n", circuit, len(circ.Gates), cycles)

	st, err := experiments.StudyCircuit(circ, stim, cycles, procs)
	if err != nil {
		return err
	}
	var evals int64
	for _, e := range st.Profile.Evaluations {
		evals += e
	}
	fmt.Fprintf(w, "profile: %d gate evaluations, %d wires with traffic\n", evals, len(st.Profile.Messages))
	if st.Banding == nil {
		fmt.Fprintln(w, "linearize: exact ring→path conversion")
	} else {
		q := st.Banding.Quality(st.Graph)
		fmt.Fprintf(w, "linearize: BFS banding into %d bands (internal %.0f, adjacent %.0f edge weight)\n",
			st.Path.Len(), q.InternalWeight, q.AdjacentWeight)
	}
	fmt.Fprintf(w, "partition: K=%.0f → %d components, cut weight %.0f (bottleneck %.0f)\n",
		st.K, st.Opt.NumComponents(), st.Opt.CutWeight, st.Opt.Bottleneck)
	naiveW, _ := st.Path.CutWeight(st.Naive)
	fmt.Fprintf(w, "equal-blocks baseline: cut weight %.0f\n", naiveW)
	fmt.Fprintf(w, "bus replay (3 rounds): optimal makespan %.2f (bus busy %.2f) vs equal-blocks %.2f (bus busy %.2f)\n",
		st.OptRun.Makespan, st.OptRun.BusBusy, st.NaiveRun.Makespan, st.NaiveRun.BusBusy)
	return nil
}
