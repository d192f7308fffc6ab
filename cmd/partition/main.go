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
// stream (progress on stderr) and prints the solve report once it lands,
// exiting non-zero when the job failed or was canceled.
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

	"repro"
	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "partition:", err)
		os.Exit(1)
	}
}

func run() error {
	algo := flag.String("algo", "bandwidth", "solver name from the engine registry (see -list); pipeline = partition-tree")
	k := flag.Float64("k", 0, "execution-time bound K, or the part count for maxmin-*/summax-* solvers (required unless -sweep or -list is given, > 0)")
	sweep := flag.String("sweep", "", "comma-separated K values: print the K ↔ bandwidth ↔ processors trade-off curve for a path and exit")
	maxProcs := flag.Int("m", 0, "limit the number of components (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "abort the solve after this duration (0 = none)")
	stats := flag.Bool("stats", false, "print per-solve statistics (duration, iterations)")
	traceFlag := flag.Bool("trace", false, "record phase spans and print the span tree after the report")
	traceOut := flag.String("trace-out", "", "write the trace as Chrome trace-event JSON to this file (implies -trace; load via chrome://tracing or ui.perfetto.dev)")
	verifyFlag := flag.Bool("verify", false, "re-check the result against the solver-independent optimality certificate")
	list := flag.Bool("list", false, "list registered solver names and exit")
	serverURL := flag.String("server", "", "partitiond base URL: solve remotely through the async jobs API instead of in-process")
	submit := flag.Bool("submit", false, "with -server: submit the solve as a job and print its ID")
	wait := flag.Bool("wait", false, "with -server: follow the job's SSE stream and print the result when it lands")
	jobID := flag.String("job", "", "with -server -wait: attach to an existing job instead of submitting")
	priority := flag.Int("priority", 0, "with -server: job queue priority (higher runs first)")
	in := flag.String("in", "", "input graph file (default stdin)")
	dot := flag.String("dot", "", "write a Graphviz rendering of the partition to this file")
	procs := flag.Int("procs", 0, "processors for the metrics report (default: number of components)")
	speed := flag.Float64("speed", 1, "processor speed for the metrics report")
	bus := flag.Float64("bus", 1, "bus bandwidth for the metrics report")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Printf("partition %s %s\n", version.Version, version.GoVersion())
		return nil
	}
	if *list {
		for _, name := range repro.Solvers() {
			fmt.Println(name)
		}
		return nil
	}
	if *serverURL == "" && (*submit || *wait || *jobID != "" || *priority != 0) {
		return fmt.Errorf("-submit, -wait, -job and -priority need -server")
	}
	if *serverURL != "" {
		return runRemote(remoteArgs{
			server: *serverURL, algo: *algo, k: *k, maxProcs: *maxProcs,
			timeout: *timeout, verify: *verifyFlag, in: *in,
			submit: *submit, wait: *wait, jobID: *jobID, priority: *priority,
			localOnly: *sweep != "" || *dot != "" || *traceFlag || *traceOut != "" || *stats,
		})
	}
	if *sweep == "" && !(*k > 0) {
		return fmt.Errorf("-k must be positive (got %v)", *k)
	}
	if *maxProcs < 0 {
		return fmt.Errorf("-m must be non-negative (got %d)", *maxProcs)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be non-negative (got %v)", *timeout)
	}
	if *procs < 0 {
		return fmt.Errorf("-procs must be non-negative (got %d)", *procs)
	}
	if !(*speed > 0) {
		return fmt.Errorf("-speed must be positive (got %v)", *speed)
	}
	if !(*bus > 0) {
		return fmt.Errorf("-bus must be positive (got %v)", *bus)
	}
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	any, err := readGraph(r)
	if err != nil {
		return fmt.Errorf("reading graph: %w", err)
	}
	if *sweep != "" {
		p, ok := any.(*graph.Path)
		if !ok {
			return fmt.Errorf("-sweep needs a path graph, got %T", any)
		}
		return reportSweep(p, *sweep)
	}
	name := *algo
	if name == "pipeline" {
		name = "partition-tree"
	}
	req := repro.SolveRequest{
		Solver: name,
		K:      *k,
		Options: repro.SolveOptions{
			MaxComponents: *maxProcs,
			Timeout:       *timeout,
		},
	}
	switch g := any.(type) {
	case *graph.Path:
		req.Path = g
	case *graph.Tree:
		req.Tree = g
	default:
		return fmt.Errorf("cannot partition a %T", any)
	}
	ctx := context.Background()
	var tr *repro.SolveTrace
	if *traceFlag || *traceOut != "" {
		tr = repro.NewSolveTrace("partition " + name)
		ctx = repro.WithSolveTrace(ctx, tr)
	}
	res, err := repro.Solve(ctx, req)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.Finish()
	}
	if err := report(any, &res, *dot, *procs, *speed, *bus); err != nil {
		return err
	}
	if tr != nil {
		fmt.Println()
		if err := tr.WriteText(os.Stdout); err != nil {
			return err
		}
		if *traceOut != "" {
			if err := writeChromeTrace(*traceOut, tr); err != nil {
				return err
			}
			fmt.Printf("chrome trace:     %s\n", *traceOut)
		}
	}
	if *verifyFlag {
		if err := reportCertificate(req, &res); err != nil {
			return err
		}
	}
	if *stats {
		fmt.Printf("solve time:       %v\n", res.Stats.Duration)
		fmt.Printf("iterations:       %d\n", res.Stats.Iterations)
		// The partitiond cache key is fingerprint + solver + K (+ -m);
		// printing it here lets operators cross-check cache behavior.
		if fp, err := graph.Fingerprint(any); err == nil {
			fmt.Printf("fingerprint:      %016x\n", fp)
		}
	}
	return nil
}

// readGraph reads one graph in any of the supported encodings: a PGB1 binary
// frame is detected by its magic bytes, a JSON envelope by its leading '{',
// and anything else is parsed as the line-oriented text codec. Binary inputs
// may carry trailing bytes (e.g. a concatenated stream); only the first
// frame is used.
func readGraph(r io.Reader) (any, error) {
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
func reportCertificate(req repro.SolveRequest, res *repro.SolveResult) error {
	cert, err := repro.Certify(req, res)
	if err != nil {
		if errors.Is(err, repro.ErrNotCertifiable) {
			fmt.Printf("certificate:      unavailable (%v)\n", err)
			return nil
		}
		return fmt.Errorf("verify: %w", err)
	}
	status := "NOT CERTIFIED"
	if cert.Certified {
		status = "certified"
	}
	fmt.Printf("certificate:      %s (%s)\n", status, cert.Criterion)
	fmt.Printf("  objective:      %g\n", cert.Objective)
	fmt.Printf("  bound:          %g\n", cert.Bound)
	if cert.Detail != "" {
		fmt.Printf("  detail:         %s\n", cert.Detail)
	}
	if !cert.Certified {
		return fmt.Errorf("result failed the %s certificate", cert.Criterion)
	}
	return nil
}

func reportSweep(p *graph.Path, spec string) error {
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
	fmt.Printf("%-12s %-12s %-12s %s\n", "K", "cut weight", "bottleneck", "components")
	for _, pt := range points {
		fmt.Printf("%-12g %-12g %-12g %d\n", pt.K, pt.CutWeight, pt.Bottleneck, pt.Components)
	}
	return nil
}

func report(g any, res *repro.SolveResult, dot string, procs int, speed, bus float64) error {
	fmt.Printf("solver:           %s\n", res.Solver)
	fmt.Printf("cut edges:        %v\n", res.Cut)
	fmt.Printf("cut weight:       %g\n", res.CutWeight)
	fmt.Printf("bottleneck edge:  %g\n", res.Bottleneck)
	fmt.Printf("components:       %d\n", res.NumComponents())
	fmt.Printf("component loads:  %v\n", res.ComponentWeights)
	if procs == 0 {
		procs = res.NumComponents()
	}
	m := &repro.Machine{Processors: procs, Speed: speed, BusBandwidth: bus}
	var met *repro.Metrics
	var render func(io.Writer) error
	switch g := g.(type) {
	case *graph.Path:
		// A path solved by a tree solver reports tree metrics over the
		// path-as-tree view so the cut indices line up.
		if res.TreePartition != nil {
			t := g.AsTree()
			var err error
			met, err = repro.EvaluateTree(m, t, res.Cut)
			if err != nil {
				return err
			}
			render = func(w io.Writer) error { return graph.TreeDOT(w, t, res.Cut) }
			break
		}
		var err error
		met, err = repro.EvaluatePath(m, g, res.Cut)
		if err != nil {
			return err
		}
		render = func(w io.Writer) error { return graph.PathDOT(w, g, res.Cut) }
	case *graph.Tree:
		var err error
		met, err = repro.EvaluateTree(m, g, res.Cut)
		if err != nil {
			return err
		}
		render = func(w io.Writer) error { return graph.TreeDOT(w, g, res.Cut) }
	default:
		return fmt.Errorf("cannot report on a %T", g)
	}
	printMetrics(met)
	if dot != "" {
		return writeDOT(dot, render)
	}
	return nil
}

func printMetrics(m *repro.Metrics) {
	fmt.Printf("compute makespan: %g\n", m.ComputeMakespan)
	fmt.Printf("total traffic:    %g\n", m.TotalTraffic)
	fmt.Printf("bus time:         %g\n", m.BusTime)
	fmt.Printf("max proc traffic: %g\n", m.MaxProcessorTraffic)
	fmt.Printf("utilization:      %.3f\n", m.Utilization)
}

func writeChromeTrace(path string, tr *repro.SolveTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeDOT(path string, render func(io.Writer) error) error {
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
