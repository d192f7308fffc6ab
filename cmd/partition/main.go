// Command partition reads a task graph and partitions it with one of the
// paper's algorithms, printing the cut, the component loads and the
// shared-memory metrics.
//
// Usage:
//
//	partition -algo bandwidth -k 100 [-in graph.txt] [-dot out.dot]
//	partition -algo bottleneck -k 100 -in tree.txt
//	partition -algo minproc    -k 100 -in tree.txt
//	partition -algo pipeline   -k 100 -in tree.txt   # bottleneck→contract→minproc
//	partition -algo bandwidth  -k 100 -trace          # print the phase-span tree
//	partition -algo bandwidth  -k 100 -trace-out t.json  # Chrome trace-event JSON
//	partition -algo maxmin-tree -k 4 -verify -in tree.txt  # 4 parts, max–min
//	partition -algo summax-tree -k 4 -verify -in tree.txt  # 4 parts, sum-of-max
//	partition -list                                   # list registered solvers
//
// With -server the solve runs remotely as a partitiond async job instead of
// in-process — the road for solves longer than the daemon's synchronous
// deadline:
//
//	partition -server http://localhost:8080 -algo treecut-exact -k 900 -submit -in tree.txt
//	partition -server http://localhost:8080 -algo treecut-exact -k 900 -submit -wait -in tree.txt
//	partition -server http://localhost:8080 -wait -job j1b2c3…   # attach to a submitted job
//
// -submit prints the job ID and its events URL; -wait follows the job's SSE
// stream (progress on stderr) and prints the solve report once it lands.
// Attaching to a job the daemon does not know (never submitted, or already
// swept by retention) fails at once with the daemon's message.
//
// -algo accepts any solver name from the engine registry (see -list);
// "pipeline" is kept as an alias for "partition-tree". The input is read
// from stdin when -in is omitted and its encoding is auto-detected: a PGB1
// binary frame (gengraph -format bin, internal/codec) by its magic bytes,
// anything else as the line-oriented text codec or JSON envelope of
// internal/graph (see README). Path solvers expect a "path" graph; the tree
// solvers accept "path" or "tree". For the part-count solvers (maxmin-path,
// maxmin-tree, summax-tree) -k carries the integral number of components
// instead of an execution-time bound.
//
// The exit status is 0 on success and for -h, 2 when the flags do not
// parse, and 1 for any other error: a bad flag value, an unreadable graph, a
// failed solve or certificate, or a remote job that failed or was canceled.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/version"
)

func main() { os.Exit(run(os.Args, os.Stdin, os.Stdout, os.Stderr)) }

// options holds the parsed command line.
type options struct {
	algo, sweep, traceOut, in, dot, server, job       string
	k, speed, bus                                     float64
	maxProcs, procs, priority                         int
	timeout                                           time.Duration
	stats, trace, verify, list, version, submit, wait bool
}

// run is the whole command. args[0] names the program in the usage text;
// the result is the exit status (see the package doc). Errors other than
// flag-parse errors are printed to stderr as "partition: <err>".
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.algo, "algo", "bandwidth", "solver name from the engine registry (see -list); pipeline = partition-tree")
	fs.Float64Var(&o.k, "k", 0, "execution-time bound K, or the part count for maxmin-*/summax-* solvers (required unless -sweep or -list is given, > 0)")
	fs.StringVar(&o.sweep, "sweep", "", "comma-separated K values: print the K ↔ bandwidth ↔ processors trade-off curve for a path and exit")
	fs.IntVar(&o.maxProcs, "m", 0, "limit the number of components (0 = unlimited)")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the solve after this duration (0 = none)")
	fs.BoolVar(&o.stats, "stats", false, "print per-solve statistics (duration, iterations)")
	fs.BoolVar(&o.trace, "trace", false, "record phase spans and print the span tree after the report")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the trace as Chrome trace-event JSON to this file (implies -trace; load via chrome://tracing or ui.perfetto.dev)")
	fs.BoolVar(&o.verify, "verify", false, "re-check the result against the solver-independent optimality certificate")
	fs.BoolVar(&o.list, "list", false, "list registered solver names and exit")
	fs.StringVar(&o.server, "server", "", "partitiond base URL: solve remotely through the async jobs API instead of in-process")
	fs.BoolVar(&o.submit, "submit", false, "with -server: submit the solve as a job and print its ID")
	fs.BoolVar(&o.wait, "wait", false, "with -server: follow the job's SSE stream and print the result when it lands")
	fs.StringVar(&o.job, "job", "", "with -server -wait: attach to an existing job instead of submitting")
	fs.IntVar(&o.priority, "priority", 0, "with -server: job queue priority (higher runs first)")
	fs.StringVar(&o.in, "in", "", "input graph file (default stdin)")
	fs.StringVar(&o.dot, "dot", "", "write a Graphviz rendering of the partition to this file")
	fs.IntVar(&o.procs, "procs", 0, "processors for the metrics report (default: number of components)")
	fs.Float64Var(&o.speed, "speed", 1, "processor speed for the metrics report")
	fs.Float64Var(&o.bus, "bus", 1, "bus bandwidth for the metrics report")
	fs.BoolVar(&o.version, "version", false, "print version and exit")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if o.algo == "pipeline" {
		o.algo = "partition-tree"
	}
	if err := o.run(stdin, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "partition:", err)
		return 1
	}
	return 0
}

func (o *options) run(stdin io.Reader, stdout, stderr io.Writer) error {
	if o.version {
		fmt.Fprintf(stdout, "partition %s %s\n", version.Version, version.GoVersion())
		return nil
	}
	if o.list {
		for _, name := range repro.Solvers() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	if err := o.validate(); err != nil {
		return err
	}
	var g any
	if o.job == "" {
		var err error
		if g, err = readGraph(o.in, stdin); err != nil {
			return err
		}
	}
	if o.server != "" {
		return o.remote(g, stdout, stderr)
	}
	if o.sweep != "" {
		p, ok := g.(*graph.Path)
		if !ok {
			return fmt.Errorf("-sweep needs a path graph, got %T", g)
		}
		return reportSweep(stdout, p, o.sweep)
	}
	return o.solve(stdout, g)
}

// validate checks the flag combination for both modes, in the order the
// checks are reported.
func (o *options) validate() error {
	remote := o.server != ""
	switch {
	case !remote && (o.submit || o.wait || o.job != "" || o.priority != 0):
		return errors.New("-submit, -wait, -job and -priority need -server")
	case remote && (o.sweep != "" || o.dot != "" || o.trace || o.traceOut != "" || o.stats):
		return errors.New("-sweep, -dot, -trace, -trace-out and -stats are local-only; the jobs API reports stats in the result")
	case remote && o.job != "":
		return nil // attaching to a job needs no graph and no K
	case remote && !o.submit:
		return errors.New("-server needs -submit (optionally with -wait), or -wait -job <id> to attach")
	case o.sweep == "" && !(o.k > 0):
		return fmt.Errorf("-k must be positive (got %v)", o.k)
	case o.maxProcs < 0:
		return fmt.Errorf("-m must be non-negative (got %d)", o.maxProcs)
	case o.timeout < 0:
		return fmt.Errorf("-timeout must be non-negative (got %v)", o.timeout)
	case remote:
		return nil // -procs, -speed and -bus only shape the in-process report
	case o.procs < 0:
		return fmt.Errorf("-procs must be non-negative (got %d)", o.procs)
	case !(o.speed > 0):
		return fmt.Errorf("-speed must be positive (got %v)", o.speed)
	case !(o.bus > 0):
		return fmt.Errorf("-bus must be positive (got %v)", o.bus)
	}
	return nil
}

// solve runs the solve in-process and prints its report.
func (o *options) solve(w io.Writer, g any) error {
	req := repro.SolveRequest{
		Solver:  o.algo,
		K:       o.k,
		Options: repro.SolveOptions{MaxComponents: o.maxProcs, Timeout: o.timeout},
	}
	switch g := g.(type) {
	case *graph.Path:
		req.Path = g
	case *graph.Tree:
		req.Tree = g
	default:
		return fmt.Errorf("cannot partition a %T", g)
	}
	ctx := context.Background()
	var tr *repro.SolveTrace
	if o.trace || o.traceOut != "" {
		tr = repro.NewSolveTrace("partition " + req.Solver)
		ctx = repro.WithSolveTrace(ctx, tr)
	}
	res, err := repro.Solve(ctx, req)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.Finish()
	}
	if err := report(w, g, &res, o.dot, o.procs, o.speed, o.bus); err != nil {
		return err
	}
	if tr != nil {
		fmt.Fprintln(w)
		if err := tr.WriteText(w); err != nil {
			return err
		}
		if o.traceOut != "" {
			if err := writeFile(o.traceOut, tr.WriteChrome); err != nil {
				return err
			}
			fmt.Fprintf(w, "chrome trace:     %s\n", o.traceOut)
		}
	}
	if o.verify {
		if err := reportCertificate(w, req, &res); err != nil {
			return err
		}
	}
	if o.stats {
		fmt.Fprintf(w, "solve time:       %v\niterations:       %d\n", res.Stats.Duration, res.Stats.Iterations)
		// The partitiond cache key is fingerprint + solver + K (+ -m);
		// printing it here lets operators cross-check cache behavior.
		if fp, err := graph.Fingerprint(g); err == nil {
			fmt.Fprintf(w, "fingerprint:      %016x\n", fp)
		}
	}
	return nil
}

// readGraph reads one graph from the file at path, or from stdin when path
// is empty, in any of the supported encodings: a PGB1 binary frame is
// detected by its magic bytes, a JSON envelope by its leading '{', and
// anything else is parsed as the line-oriented text codec. Binary inputs
// may carry trailing bytes (e.g. a concatenated stream); only the first
// frame is used.
func readGraph(path string, r io.Reader) (g any, err error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	defer func() {
		if err != nil {
			err = fmt.Errorf("reading graph: %w", err)
		}
	}()
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if codec.Sniff(data) {
		g, _, _, err := codec.Decode(data, codec.Options{})
		return g, err
	}
	if t := bytes.TrimLeft(data, " \t\r\n"); len(t) > 0 && t[0] == '{' {
		return graph.DecodeJSON(t)
	}
	return graph.ReadAny(bytes.NewReader(data))
}

// reportCertificate runs the optimality certificate and prints its verdict.
// An uncertified result exits non-zero so scripts can gate on it; a solver
// without a certificate (ErrNotCertifiable) is reported but not fatal.
func reportCertificate(w io.Writer, req repro.SolveRequest, res *repro.SolveResult) error {
	cert, err := repro.Certify(req, res)
	if err != nil {
		if errors.Is(err, repro.ErrNotCertifiable) {
			fmt.Fprintf(w, "certificate:      unavailable (%v)\n", err)
			return nil
		}
		return fmt.Errorf("verify: %w", err)
	}
	printVerdict(w, cert.Certified, cert.Criterion)
	fmt.Fprintf(w, "  objective:      %g\n  bound:          %g\n", cert.Objective, cert.Bound)
	if cert.Detail != "" {
		fmt.Fprintf(w, "  detail:         %s\n", cert.Detail)
	}
	if !cert.Certified {
		return fmt.Errorf("result failed the %s certificate", cert.Criterion)
	}
	return nil
}

// printVerdict prints the certificate line both reports share.
func printVerdict(w io.Writer, certified bool, criterion string) {
	status := "NOT CERTIFIED"
	if certified {
		status = "certified"
	}
	fmt.Fprintf(w, "certificate:      %s (%s)\n", status, criterion)
}

func reportSweep(w io.Writer, p *graph.Path, spec string) error {
	var ks []float64
	for _, tok := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("bad sweep value %q: %w", tok, err)
		}
		ks = append(ks, v)
	}
	points, err := repro.TradeoffCurve(p, ks)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-12s %-12s %s\n", "K", "cut weight", "bottleneck", "components")
	for _, pt := range points {
		fmt.Fprintf(w, "%-12g %-12g %-12g %d\n", pt.K, pt.CutWeight, pt.Bottleneck, pt.Components)
	}
	return nil
}

// printCut prints the lines both the local and the remote report open with.
func printCut(w io.Writer, solver string, cut []int, cutWeight, bottleneck float64, loads []float64) {
	fmt.Fprintf(w, "solver:           %s\ncut edges:        %v\ncut weight:       %g\n"+
		"bottleneck edge:  %g\ncomponents:       %d\ncomponent loads:  %v\n",
		solver, cut, cutWeight, bottleneck, len(loads), loads)
}

// report prints the cut and its shared-memory metrics on the machine given
// by -procs/-speed/-bus, and writes the -dot rendering.
func report(w io.Writer, g any, res *repro.SolveResult, dot string, procs int, speed, bus float64) error {
	printCut(w, res.Solver, res.Cut, res.CutWeight, res.Bottleneck, res.ComponentWeights)
	if procs == 0 {
		procs = res.NumComponents()
	}
	m := &repro.Machine{Processors: procs, Speed: speed, BusBandwidth: bus}
	// A path solved by a tree solver reports tree metrics over the
	// path-as-tree view so the cut indices line up.
	if p, ok := g.(*graph.Path); ok && res.TreePartition != nil {
		g = p.AsTree()
	}
	var met *repro.Metrics
	var err error
	var render func(io.Writer) error
	switch g := g.(type) {
	case *graph.Path:
		met, err = repro.EvaluatePath(m, g, res.Cut)
		render = func(w io.Writer) error { return graph.PathDOT(w, g, res.Cut) }
	case *graph.Tree:
		met, err = repro.EvaluateTree(m, g, res.Cut)
		render = func(w io.Writer) error { return graph.TreeDOT(w, g, res.Cut) }
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "compute makespan: %g\ntotal traffic:    %g\nbus time:         %g\n"+
		"max proc traffic: %g\nutilization:      %.3f\n",
		met.ComputeMakespan, met.TotalTraffic, met.BusTime, met.MaxProcessorTraffic, met.Utilization)
	if dot != "" {
		return writeFile(dot, render)
	}
	return nil
}

// writeFile creates path and renders into it.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
