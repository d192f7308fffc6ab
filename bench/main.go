// Command partbench is the repository's end-to-end benchmark. It builds
// cmd/partitiond from the checkout, starts it on loopback with its default
// flags, drives it over real sockets with a seeded closed-loop workload,
// checks every answer (inline, then against an in-process re-solve of a
// sample), and prints the metrics BENCHMARK.json names. See README.md.
//
//	bash bench/run.sh --workload json-hit --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"p90_ms":{"value":…,"unit":"ms"},…}}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps is how many times each run sets up its daemons; setup_s is
	// the median, and the last set-up serves the measured phase.
	setupReps = 5
	// sampleOps is the size of the post-run in-process check.
	sampleOps = 256
	// measureBudget bounds the measured phase, keeping a run well inside
	// the 180 s a run may take even if the daemon slows down tenfold.
	measureBudget = 120 * time.Second
)

func main() { os.Exit(run()) }

// config is one invocation's settings.
type config struct {
	bin, out string
	seed     uint64
	seconds  float64
	trace    bool
	bench    *benchFile
	host     hostInfo
}

func run() int {
	workloadName := flag.String("workload", "", "workload to run: json-hit, bin-miss-path, tree-routes or cluster-2node (empty runs all four)")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "run length on the recorded host; fixes the op count (workload rate × seconds)")
	trace := flag.Int("trace", 0, "1 adds the per-layer pass: spans, an in-process replay, and a Chrome trace file in -out")
	out := flag.String("out", "", "directory for daemon logs, reports and trace files (default .bench_build/out in the checkout)")
	compareFile := flag.String("compare", "", "baseline file to judge the end-to-end metrics against; exits 1 on a regression")
	recordFile := flag.String("record", "", "file to append this run's end-to-end results to, such as bench/baseline.json")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "partbench:", err)
		return 1
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1 (got %d)", *trace))
	}
	if *recordFile != "" && *trace == 1 {
		return fail(errors.New("-record takes untraced runs (-trace 0)"))
	}
	if !(*seconds > 0) {
		return fail(fmt.Errorf("-seconds must be positive (got %v)", *seconds))
	}
	todo := specs
	if *workloadName != "" {
		s, err := specOf(*workloadName)
		if err != nil {
			return fail(err)
		}
		todo = []spec{s}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg, err := setup(ctx, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		return fail(err)
	}
	var reports []*report
	for _, s := range todo {
		rep, err := runWorkload(ctx, cfg, s)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", s.name, err))
		}
		printReport(os.Stdout, rep, cfg.bench)
		reports = append(reports, rep)
	}
	lines := make([][]byte, len(reports))
	for i, rep := range reports {
		if lines[i], err = resultLine(rep, cfg.bench, cfg.trace); err != nil {
			return fail(err)
		}
	}
	if *recordFile != "" {
		if err := record(*recordFile, reports, cfg.bench); err != nil {
			return fail(err)
		}
	}
	code := 0
	if *compareFile != "" {
		base, err := loadBaseline(*compareFile)
		if err != nil {
			return fail(err)
		}
		verdicts, regressed := compare(base, cfg.bench, reports)
		printVerdicts(os.Stdout, verdicts)
		if regressed {
			code = 1
		}
	}
	for _, l := range lines {
		fmt.Printf("%s\n", l)
	}
	return code
}

// setup locates the checkout, reads BENCHMARK.json and builds the daemon.
func setup(ctx context.Context, seed uint64, seconds float64, trace bool, out string) (*config, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	bf, err := loadBenchFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if out == "" {
		out = filepath.Join(build, "out")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildDaemon(ctx, root, build)
	if err != nil {
		return nil, err
	}
	return &config{bin: bin, out: out, seed: seed, seconds: seconds, trace: trace, bench: bf, host: hostOf()}, nil
}

// findRoot returns the checkout root: the working directory, or its parent
// when run from bench/ (as go test does).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "partitiond", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root: cmd/partitiond not found")
}

// benchFile is the part of BENCHMARK.json the benchmark reads: the metric
// names it must print and their bounds.
type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchFile(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// hostInfo records where a run was measured.
type hostInfo struct {
	CPU              string `json:"cpu"`
	NProc            int    `json:"nproc"`
	ClientGOMAXPROCS int    `json:"client_gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	Go               string `json:"go"`
	Commit           string `json:"commit"`
	Dirty            string `json:"dirty"`
}

func hostOf() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), ClientGOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: "unknown", Commit: "unknown", Dirty: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The checkout's commit, stamped into this binary by go build when the
	// checkout is a git work tree.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value
			}
		}
	}
	return h
}

// opCounts summarizes a run's op sequence.
type opCounts struct {
	Total   int `json:"total"`
	Solve   int `json:"solve"`
	Batch   int `json:"batch"`
	Job     int `json:"job"`
	Repeats int `json:"repeats"`
	Items   int `json:"items"`
	Daemons int `json:"daemons"`
}

// report is one workload run.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Host      hostInfo           `json:"host"`
	Ops       opCounts           `json:"ops"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Checked   int                `json:"post_run_checked"`
	CheckedIt int                `json:"post_run_items"`
	Samples   int                `json:"latency_samples"`
	Tail      string             `json:"latency_tail"`
	TailMs    float64            `json:"latency_tail_ms"`
	SetupS    []float64          `json:"setup_s_runs"`
	ClientCPU float64            `json:"client_cpu_ms_per_op"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
}

func (r *report) errorRate() float64 { return float64(r.Failed) / float64(r.Attempted) }

// runWorkload generates the workload, sets its daemons up setupReps times,
// measures the last set-up closed-loop, checks the answers, and computes
// the metrics.
func runWorkload(ctx context.Context, cfg *config, s spec) (*report, error) {
	begin := time.Now()
	w := generate(s, cfg.seed, s.opCount(cfg.seconds))
	sampled := sampleOf(len(w.ops), cfg.seed, s.name)
	keep := make([]bool, len(w.ops))
	for _, i := range sampled {
		keep[i] = true
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	prefix := fmt.Sprintf("%s-seed%d", s.name, cfg.seed)

	fl, clients, setups, err := setUp(ctx, cfg, w, prefix)
	if err != nil {
		return nil, err
	}
	defer fl.stop() // a no-op once shutdown has stopped it
	if mc, err := fl.maxConcurrent(ctx); err == nil {
		cfg.host.DaemonGOMAXPROCS = mc
	}

	cpu0, _, err := fl.stats()
	if err != nil {
		return nil, err
	}
	ru0 := selfCPU()
	for _, c := range clients {
		c.trace = tr
	}
	t0 := time.Now()
	outs := drive(ctx, w.ops, clients, keep, begin.Add(measureBudget))
	wall := time.Since(t0)
	clientCPU := selfCPU() - ru0
	cpu1, hwmKB, err := fl.stats()
	if err != nil {
		return nil, err
	}

	failed := map[int]string{}
	for i := range outs {
		if !outs[i].ok() {
			failed[i] = outs[i].err
		}
	}
	for i, msg := range twinCheck(ctx, clients[0], w, outs, sampled) {
		failed[i] = msg
	}
	if err := shutdown(fl, clients); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rr := postCheck(ctx, w, outs, sampled, tr)
	for i, msg := range rr.failed {
		failed[i] = msg
	}

	rep := &report{
		Workload: s.name, Seed: cfg.seed, Seconds: cfg.seconds, Host: cfg.host, Ops: countOps(w),
		Attempted: len(w.ops), Failed: len(failed), Checked: rr.checked, CheckedIt: rr.items,
		SetupS: setups, EndToEnd: map[string]float64{},
		ClientCPU: float64(clientCPU) / float64(time.Millisecond) / float64(len(w.ops)),
	}
	for _, i := range sortedInts(failed) {
		if len(rep.Errors) == 10 {
			break
		}
		rep.Errors = append(rep.Errors, fmt.Sprintf("op %d: %s", i, failed[i]))
	}
	rep.latencies(outs, failed)
	rep.EndToEnd["throughput_rps"] = float64(len(outs)-len(failed)) / wall.Seconds()
	rep.EndToEnd["daemon_cpu_ms_per_op"] = float64(cpu1-cpu0) / float64(time.Millisecond) / float64(len(outs))
	rep.EndToEnd["peak_rss_mb"] = float64(hwmKB) / 1024
	rep.EndToEnd["setup_s"] = median(setups)

	if tr != nil {
		rep.Layers = layerMetrics(w, outs, tr, rr)
		if err := tr.writeChrome(filepath.Join(cfg.out, prefix+".trace.json")); err != nil {
			return nil, err
		}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(filepath.Join(cfg.out, prefix+".report.json"), b, 0o644)
}

// setUp starts the workload's daemons and runs its warm phase setupReps
// times, shutting down all but the last set-up. It returns that one, its
// clients (one per daemon), and every set-up's duration in seconds.
func setUp(ctx context.Context, cfg *config, w *workload, prefix string) (*fleet, []*client, []float64, error) {
	var setups []float64
	for rep := 0; ; rep++ {
		t := time.Now()
		fl, err := startFleet(ctx, cfg.bin, w.nodes, cfg.out, fmt.Sprintf("%s-setup%d", prefix, rep))
		if err != nil {
			return nil, nil, nil, err
		}
		clients := make([]*client, w.nodes)
		for i, d := range fl.daemons {
			clients[i] = newClient(i, d.addr, w)
		}
		for i, out := range drive(ctx, w.warm, clients, nil, time.Now().Add(measureBudget)) {
			if !out.ok() {
				_ = shutdown(fl, clients) // the failed warm-up is the error to report
				return nil, nil, nil, fmt.Errorf("warm-up op %d failed: %s", i, out.err)
			}
		}
		setups = append(setups, time.Since(t).Seconds())
		if rep == setupReps-1 {
			return fl, clients, setups, nil
		}
		if err := shutdown(fl, clients); err != nil {
			return nil, nil, nil, err
		}
	}
}

func shutdown(fl *fleet, clients []*client) error {
	for _, c := range clients {
		c.close()
	}
	return fl.stop()
}

// latencies fills the latency percentiles: nearest rank over every op, a
// failed op counting as infinitely slow (it misses every latency limit).
// A percentile without ten samples beyond it is left out.
func (r *report) latencies(outs []outcome, failed map[int]string) {
	lat := make([]float64, len(outs))
	for i := range outs {
		lat[i] = float64(outs[i].lat) / float64(time.Millisecond)
		if _, bad := failed[i]; bad {
			lat[i] = math.Inf(1)
		}
	}
	sort.Float64s(lat)
	r.Samples = len(lat)
	for name, permille := range map[string]int{"p50_ms": 500, "p90_ms": 900, "p99_ms": 990} {
		if v, ok := percentile(lat, permille); ok {
			r.EndToEnd[name] = v
		}
	}
	if pm, ok := tailPercentile(len(lat)); ok {
		r.Tail = fmt.Sprintf("p%g", float64(pm)/10)
		r.TailMs, _ = percentile(lat, pm)
	}
}

// sampleOf picks the ops of the post-run check: a seeded subset of at most
// sampleOps, in op order.
func sampleOf(n int, seed uint64, name string) []int {
	r := rand.New(rand.NewPCG(seed, streamOf(name)+1))
	idx := r.Perm(n)
	if len(idx) > sampleOps {
		idx = idx[:sampleOps]
	}
	sort.Ints(idx)
	return idx
}

func countOps(w *workload) opCounts {
	c := opCounts{Total: len(w.ops), Daemons: w.nodes}
	for _, o := range w.ops {
		switch o.route {
		case routeSolve:
			c.Solve++
		case routeBatch:
			c.Batch++
		case routeJob:
			c.Job++
		}
		if o.repeat {
			c.Repeats++
		}
		c.Items += len(o.items)
	}
	return c
}

func sortedInts(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// selfCPU is this process's user + system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// unitOf names the unit of a detailed per-layer metric.
func unitOf(name string) string {
	switch {
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "ratio") || strings.Contains(name, "rate") || strings.Contains(name, "_over_"):
		return "ratio"
	default:
		return "count"
	}
}

func printReport(w io.Writer, r *report, bf *benchFile) {
	fmt.Fprintf(w, "partbench %s seed=%d ops=%d (solve %d, batch %d, job %d; %d repeats, %d items) daemons=%d\n",
		r.Workload, r.Seed, r.Ops.Total, r.Ops.Solve, r.Ops.Batch, r.Ops.Job, r.Ops.Repeats, r.Ops.Items, r.Ops.Daemons)
	h := r.Host
	fmt.Fprintf(w, "  host: cpu=%q nproc=%d gomaxprocs client=%d daemon=%d %s commit=%s dirty=%s\n",
		h.CPU, h.NProc, h.ClientGOMAXPROCS, h.DaemonGOMAXPROCS, h.Go, h.Commit, h.Dirty)
	fmt.Fprintf(w, "  checked: %d of %d ops failed; %d sampled ops (%d items) re-solved in-process, equal and certified\n",
		r.Failed, r.Attempted, r.Checked, r.CheckedIt)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	fmt.Fprintf(w, "  latency: %d samples, p50 = %.3f ms, tail %s = %.3f ms; set-ups %v s; client cpu %.3f ms/op\n",
		r.Samples, r.EndToEnd["p50_ms"], r.Tail, r.TailMs, r.SetupS, r.ClientCPU)
	for _, d := range bf.EndToEnd {
		fmt.Fprintf(w, "  %-24s %14.6g %-6s bound %g\n", d.Name, r.EndToEnd[d.Name], d.Unit, d.Bound)
	}
	for _, name := range sortedKeys(r.Layers) {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, r.Layers[name], unitOf(name))
	}
}

// metricValue is one metric of the result line. Non-finite values (a
// percentile that landed on a failed op) render as null; such a run is not
// correct anyway.
type metricValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// resultLine renders the result object: the end-to-end metrics, or with
// tracing the per-layer ones, exactly as BENCHMARK.json lists them.
func resultLine(r *report, bf *benchFile, trace bool) ([]byte, error) {
	defs, values := bf.EndToEnd, r.EndToEnd
	if trace {
		defs, values = bf.PerLayer, r.Layers
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			// Counts and ratios of a layer this workload does not reach are
			// zero; a missing timing is a benchmark bug.
			if d.Unit == "ms" || d.Unit == "s" || !trace {
				return nil, fmt.Errorf("%s: no value for metric %s (%d ops)", r.Workload, d.Name, r.Attempted)
			}
		}
		mv := metricValue{Unit: d.Unit}
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			mv.Value = &v
		}
		metrics[d.Name] = mv
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
}
