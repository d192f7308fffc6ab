// Command experiments regenerates the paper's evaluation artifacts (see
// DESIGN.md's experiment index and EXPERIMENTS.md for recorded output).
//
// Usage:
//
//	experiments -fig 2               # Figure 2 sweep (p, q, p·log q, queue stats)
//	experiments -fig 2 -csv f.csv    # also dump the sweep as CSV
//	experiments -table complexity    # bandwidth solver ladder timings
//	experiments -table ccp           # chains-on-chains prior-work ladder
//	experiments -table des           # §3 DDES circuit study
//	experiments -table rt            # §3 real-time pipeline study
//	experiments -table priorwork     # sum-bottleneck and host-satellite prior work
//	experiments -table treeheuristic # Theorem 1: greedy vs exact tree cut
//	experiments -all                 # everything
//	experiments -quick               # smaller sweeps for a fast smoke run
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
)

// options are the parsed flags.
type options struct {
	fig, table, csv string
	all, quick      bool
}

// section is one titled block of output.
type section struct {
	title string
	run   func(w io.Writer, o options) error
}

// artifact is one figure (fig set, selected by -fig) or table (selected by
// -table). -all runs every artifact in table order.
type artifact struct {
	name     string
	fig      bool
	sections []section
}

// titled makes a section from a Run*/Render* pair.
func titled[R any](title string, run func(options) (R, error), render func(io.Writer, R) error) section {
	return section{title, func(w io.Writer, o options) error {
		rows, err := run(o)
		if err != nil {
			return err
		}
		return render(w, rows)
	}}
}

// pick returns quick under -quick and full otherwise.
func (o options) pick(quick, full int) int {
	if o.quick {
		return quick
	}
	return full
}

var artifacts = []artifact{
	{name: "2", fig: true, sections: []section{{"Figure 2: bandwidth-instance statistics vs n and K", func(w io.Writer, o options) error {
		cfg := experiments.DefaultFig2Config()
		if o.quick {
			cfg.N = []int{1000, 10000}
			cfg.Trials = 2
		}
		fmt.Fprintf(w, "vertex weights ~ U[%g,%g], edge weights ~ U[%g,%g], %d trials/point, seed %d\n\n",
			cfg.W1, cfg.W2, cfg.EdgeW1, cfg.EdgeW2, cfg.Trials, cfg.Seed)
		rows, err := experiments.RunFig2(cfg)
		if err != nil {
			return err
		}
		if err := experiments.RenderFig2(w, rows); err != nil || o.csv == "" {
			return err
		}
		var csv bytes.Buffer
		if err := experiments.Fig2CSV(&csv, rows); err != nil {
			return err
		}
		if err := os.WriteFile(o.csv, csv.Bytes(), 0o666); err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "\ncsv written to %s\n", o.csv)
		return err
	}}}},
	{name: "complexity", sections: []section{titled("Bandwidth solver ladder: wall-clock scaling (TAB-CMP)",
		func(o options) ([]experiments.ComplexityRow, error) {
			cfg := experiments.DefaultComplexityConfig()
			if o.quick {
				cfg.N = []int{1000, 10000, 100000}
				cfg.Trials = 2
			}
			return experiments.RunComplexity(cfg)
		}, experiments.RenderComplexity)}},
	{name: "ccp", sections: []section{titled("Chains-on-chains prior-work ladder (Bokhari / Nicol / Hansen-Lih classes)",
		func(o options) ([]experiments.CCPRow, error) {
			cfg := experiments.DefaultCCPConfig()
			if o.quick {
				cfg.Points = []experiments.CCPPoint{{N: 1000, M: 8}, {N: 10000, M: 16}}
				cfg.Trials = 2
			}
			return experiments.RunCCP(cfg)
		}, experiments.RenderCCP)}},
	{name: "des", sections: []section{titled("§3 application: distributed discrete-event logic simulation",
		func(o options) ([]experiments.DESRow, error) { return experiments.RunDES(8, o.pick(50, 200)) }, experiments.RenderDES)}},
	{name: "rt", sections: []section{titled("§3 application: real-time pipelines under deadline",
		func(options) ([]experiments.RTRow, error) { return experiments.RunRT(1994) }, experiments.RenderRT)}},
	{name: "priorwork", sections: []section{
		titled("Prior work: Bokhari sum-bottleneck (linear array) vs shared-memory cut",
			func(o options) ([]experiments.PriorWorkRow, error) {
				points := []experiments.CCPPoint{{N: 1000, M: 8}, {N: 10000, M: 16}, {N: 100000, M: 16}}
				return experiments.RunSumBottleneck(23, points[:o.pick(2, 3)], o.pick(2, 3))
			}, experiments.RenderSumBottleneck),
		titled("Prior work: single-host / multi-satellite tree partitioning",
			func(o options) ([]experiments.HostSatRow, error) {
				return experiments.RunHostSat(29, []int{1000, 10000, 100000}[:o.pick(2, 3)], o.pick(2, 3))
			}, experiments.RenderHostSat),
	}},
	{name: "treeheuristic", sections: []section{titled("Theorem 1 in practice: greedy vs exact tree bandwidth minimization",
		func(o options) ([]experiments.TreeHeuristicRow, error) {
			return experiments.RunTreeHeuristic(31, 60, o.pick(25, 100))
		}, experiments.RenderTreeHeuristic)}},
}

// names lists the -fig (fig set) or -table names in table order.
func names(fig bool) []string {
	var ns []string
	for _, a := range artifacts {
		if a.fig == fig {
			ns = append(ns, a.name)
		}
	}
	return ns
}

func main() { os.Exit(run(os.Args, os.Stdout, os.Stderr)) }

// run is the whole command. args[0] names the program in the usage text.
// The exit status is 0 on success and for -h, 2 when the flags do not parse,
// and 1 for any other error, printed to stderr as "experiments: <err>".
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.fig, "fig", "", "figure to regenerate: "+strings.Join(names(true), " | "))
	fs.StringVar(&o.table, "table", "", "table to regenerate: "+strings.Join(names(false), " | "))
	fs.StringVar(&o.csv, "csv", "", "write the Figure 2 sweep as CSV to this file")
	fs.BoolVar(&o.all, "all", false, "run every figure and table")
	fs.BoolVar(&o.quick, "quick", false, "use reduced sweep sizes")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := regenerate(stdout, fs, o); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	return 0
}

// regenerate writes every selected artifact to w, section by section.
func regenerate(w io.Writer, fs *flag.FlagSet, o options) error {
	// Fail fast on unknown selections instead of silently running nothing.
	if o.fig != "" && !slices.Contains(names(true), o.fig) {
		return fmt.Errorf("-fig must be %s (got %q)", strings.Join(names(true), " | "), o.fig)
	}
	if o.table != "" && !slices.Contains(names(false), o.table) {
		return fmt.Errorf("-table must be one of %s (got %q)", strings.Join(names(false), " | "), o.table)
	}
	if o.csv != "" && !o.all && o.fig == "" {
		return errors.New("-csv only applies to the Figure 2 sweep; add -fig 2 or -all")
	}
	if o.fig == "" && o.table == "" && !o.all {
		fs.Usage()
		return errors.New("nothing selected; use -fig, -table or -all")
	}
	picked := map[bool]string{true: o.fig, false: o.table} // the selection per artifact kind
	for _, a := range artifacts {
		if !o.all && a.name != picked[a.fig] {
			continue
		}
		for _, s := range a.sections {
			fmt.Fprintf(w, "== %s ==\n", s.title)
			if err := s.run(w, o); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
