// Package repro is a reproduction of "Improved Algorithms for Partitioning
// Tree and Linear Task Graphs on Shared Memory Architecture" (Sibabrata Ray
// and Hong Jiang, ICDCS 1994).
//
// It provides the paper's three partitioning algorithms over weighted task
// graphs, all subject to the execution-time bound K (no component may weigh
// more than K):
//
//   - Bandwidth: minimum total cut weight on linear task graphs, via the
//     paper's O(n + p log q) prime-subpath / TEMP_S algorithm (§2.3), with
//     BandwidthHeap, BandwidthDeque and BandwidthNaive as the comparison
//     baselines from the literature.
//   - Bottleneck: minimum max cut-edge weight on tree task graphs
//     (Algorithm 2.1).
//   - MinProcessors: minimum component count on tree task graphs
//     (Algorithm 2.2), plus the MinProcessorsPath special case.
//   - PartitionTree: the §2.2 pipeline — bottleneck minimization, super-node
//     contraction, then processor minimization.
//
// Beyond the paper's bound-K objectives, the package carries two part-count
// objective families from the follow-up literature, both asking for exactly p
// components:
//
//   - MaxMinPath / MaxMinTree: maximize the minimum component weight
//     (parametric search over the Perl–Schach greedy; Frederickson & Zhou,
//     arXiv 1711.00599).
//   - SumOfMaxTree: minimize the sum over components of the maximum task
//     weight (Pareto-pruned tree DP; arXiv 2503.11526).
//
// The shared-memory machine model, the component→processor mapping, and the
// partition quality metrics of §1/§3 are exposed through Machine,
// MapComponents, EvaluatePath and EvaluateTree.
//
// Subsystems with larger surfaces live in internal packages and are
// exercised by the cmd/ tools and examples/: the bus-contention simulator
// (internal/sched), the gate-level logic simulator for the §3 DDES
// application (internal/logicsim), the real-time pipeline planner
// (internal/pipeline), super-graph linearization (internal/linearize), the
// NP-completeness reduction of Theorem 1 (internal/treecut), and the
// chains-on-chains prior-work ladder (internal/ccp).
package repro

import (
	"context"
	"io"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hitting"
	"repro/internal/obs"
	"repro/internal/verify"
	"repro/internal/workload"
)

// Task graph types.
type (
	// Path is a linear task graph (§1): tasks in pipeline order with
	// communication weights on consecutive pairs.
	Path = graph.Path
	// Tree is a tree task graph (§1): divide-and-conquer computations.
	Tree = graph.Tree
	// Graph is a general task graph, used as input to linearization.
	Graph = graph.Graph
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
)

// Partition results.
type (
	// PathPartition is the result of partitioning a linear task graph.
	PathPartition = core.PathPartition
	// TreePartition is the result of partitioning a tree task graph.
	TreePartition = core.TreePartition
)

// Machine model.
type (
	// Machine is a homogeneous shared-memory multiprocessor.
	Machine = arch.Machine
	// Mapping assigns components to processors.
	Mapping = arch.Mapping
	// Metrics summarizes partition quality on a machine.
	Metrics = arch.Metrics
)

// Trace is the TEMP_S queue instrumentation of Appendix B.
type Trace = hitting.Trace

// RNG is the deterministic generator used by all workload generation.
type RNG = workload.RNG

// Solver engine. Every algorithm below is registered in the engine's solver
// registry and reachable through the context-aware Solve API; the fixed-
// signature functions further down are thin wrappers kept for convenience
// and compatibility.
type (
	// SolveRequest names a registered solver and carries the task graph,
	// the bound K, and per-solve options.
	SolveRequest = engine.Request
	// SolveResult is a completed solve: cut, metrics, and SolveStats.
	SolveResult = engine.Result
	// SolveOptions are the per-solve knobs (deadline, component cap,
	// observer).
	SolveOptions = engine.Options
	// SolveStats is per-solve work accounting (duration, iterations).
	SolveStats = engine.Stats
	// SolveEvent is the observer notification for one completed solve.
	SolveEvent = engine.Event
	// Observer receives a SolveEvent after every solve.
	Observer = engine.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = engine.ObserverFunc
	// Batch runs many solve requests concurrently on a bounded worker
	// pool.
	Batch = engine.Batch
	// BatchResult holds index-aligned per-request outcomes and aggregate
	// stats.
	BatchResult = engine.BatchResult
	// BatchStats aggregates a batch run.
	BatchStats = engine.BatchStats
	// StatsCollector is a thread-safe observer aggregating per-solver
	// statistics.
	StatsCollector = engine.Collector
)

// Request-scoped tracing (internal/obs). Attach a SolveTrace to the context
// passed to Solve and the solvers record phase spans (edge sort, feasibility
// sweeps, DP sweeps, ...) under it; see SolveTrace.WriteText/WriteChrome for
// rendering. Without a trace the span machinery is a no-op. ("Trace" was
// already taken by the TEMP_S queue instrumentation above.)
type (
	// SolveTrace is a request-scoped span tree recording solve phases.
	SolveTrace = obs.Trace
	// SolveSpanNode is one rendered span of a SolveTrace tree.
	SolveSpanNode = obs.SpanNode
	// PhaseStat aggregates the spans of one phase name: count and total time.
	PhaseStat = obs.PhaseStat
)

// NewSolveTrace returns a trace whose root span carries the given name.
func NewSolveTrace(name string) *SolveTrace { return obs.New(name) }

// WithSolveTrace attaches tr to ctx so solves run under it record phase
// spans.
func WithSolveTrace(ctx context.Context, tr *SolveTrace) context.Context {
	return obs.NewContext(ctx, tr)
}

// WithRequestID stamps a correlation ID onto ctx; it appears in SolveEvents
// and trace roots.
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// Solve runs the named solver of req with cancellation and per-solve stats;
// see Solvers for the registry names.
func Solve(ctx context.Context, req SolveRequest) (SolveResult, error) {
	return engine.Solve(ctx, req)
}

// Solvers lists the registered solver names in sorted order.
func Solvers() []string { return engine.Names() }

// Certificate is a solver-independent optimality certificate: a solve result
// re-checked for feasibility and matched against independent evidence
// (monotone feasibility for bottleneck, an exchange-optimal greedy for
// minprocs, the prime-subpath packing bound for bandwidth).
type Certificate = verify.Certificate

// ErrNotCertifiable is returned by Certify for solvers whose objective the
// certificate machinery does not cover.
var ErrNotCertifiable = verify.ErrNotCertifiable

// Certify checks a completed solve against the certificate for the solver's
// declared objective; see internal/verify.
func Certify(req SolveRequest, res *SolveResult) (*Certificate, error) {
	return verify.CertifyResult(req, res)
}

// NewStatsCollector returns an empty per-solver stats collector.
func NewStatsCollector() *StatsCollector { return engine.NewCollector() }

// Errors re-exported from the underlying packages.
var (
	// ErrInfeasible is returned when some single task exceeds the bound K.
	ErrInfeasible = core.ErrInfeasible
	// ErrBadBound is returned when K is not a positive finite number.
	ErrBadBound = core.ErrBadBound
	// ErrTooFewProcessors is returned by mapping and evaluation when the
	// partition does not fit the machine.
	ErrTooFewProcessors = arch.ErrTooFewProcessors
	// ErrUnknownSolver is returned by Solve for unregistered solver names.
	ErrUnknownSolver = engine.ErrUnknownSolver
	// ErrBadRequest is returned by Solve for structurally invalid requests.
	ErrBadRequest = engine.ErrBadRequest
)

// solvePath runs a path solver through the engine and unwraps the typed
// partition.
func solvePath(name string, p *Path, k float64, opt SolveOptions) (*PathPartition, error) {
	res, err := engine.Solve(context.Background(), engine.Request{Solver: name, Path: p, K: k, Options: opt})
	if err != nil {
		return nil, err
	}
	return res.PathPartition, nil
}

// solveTree runs a tree solver through the engine and unwraps the typed
// partition.
func solveTree(name string, t *Tree, k float64) (*TreePartition, error) {
	res, err := engine.Solve(context.Background(), engine.Request{Solver: name, Tree: t, K: k})
	if err != nil {
		return nil, err
	}
	return res.TreePartition, nil
}

// NewPath constructs and validates a linear task graph; see graph.NewPath.
func NewPath(nodeW, edgeW []float64) (*Path, error) { return graph.NewPath(nodeW, edgeW) }

// NewTree constructs and validates a tree task graph; see graph.NewTree.
func NewTree(nodeW []float64, edges []Edge) (*Tree, error) { return graph.NewTree(nodeW, edges) }

// NewRNG returns a deterministic random generator for workload generation.
func NewRNG(seed uint64) *RNG { return workload.NewRNG(seed) }

// Bandwidth solves bandwidth minimization on a linear task graph with the
// paper's O(n + p log q) algorithm (§2.3).
func Bandwidth(p *Path, k float64) (*PathPartition, error) {
	return solvePath("bandwidth", p, k, SolveOptions{})
}

// BandwidthInstrumented is Bandwidth plus TEMP_S queue statistics.
func BandwidthInstrumented(p *Path, k float64) (*PathPartition, *Trace, error) {
	return core.BandwidthInstrumented(p, k)
}

// BandwidthHeap is the O(n log n) prior-art baseline (Nicol & O'Hallaron
// 1991 complexity class).
func BandwidthHeap(p *Path, k float64) (*PathPartition, error) {
	return solvePath("bandwidth-heap", p, k, SolveOptions{})
}

// BandwidthDeque is the O(n) monotone-deque ablation.
func BandwidthDeque(p *Path, k float64) (*PathPartition, error) {
	return solvePath("bandwidth-deque", p, k, SolveOptions{})
}

// BandwidthNaive is the O(n·window) naive recurrence evaluation.
func BandwidthNaive(p *Path, k float64) (*PathPartition, error) {
	return solvePath("bandwidth-naive", p, k, SolveOptions{})
}

// BandwidthLimited solves bandwidth minimization with the extra constraint
// of at most m components (processors): O(n·m) level-wise DP. The paper's
// formulation is the m = ∞ case.
func BandwidthLimited(p *Path, k float64, m int) (*PathPartition, error) {
	return solvePath("bandwidth-limited", p, k, SolveOptions{MaxComponents: m})
}

// TradeoffPoint is one row of the K ↔ bandwidth ↔ processors trade-off
// curve.
type TradeoffPoint = core.TradeoffPoint

// TradeoffCurve evaluates Bandwidth across candidate bounds, skipping
// infeasible ones — the tool for choosing K before committing a deployment.
func TradeoffCurve(p *Path, ks []float64) ([]TradeoffPoint, error) {
	return core.TradeoffCurve(p, ks)
}

// Bottleneck solves bottleneck minimization on a tree task graph
// (Algorithm 2.1; reverse union-find sweep, O(n α(n))).
func Bottleneck(t *Tree, k float64) (*TreePartition, error) {
	return solveTree("bottleneck", t, k)
}

// BottleneckGreedy is the paper-faithful O(n²) Algorithm 2.1.
func BottleneckGreedy(t *Tree, k float64) (*TreePartition, error) {
	return solveTree("bottleneck-greedy", t, k)
}

// MinProcessors solves processor minimization on a tree task graph
// (Algorithm 2.2).
func MinProcessors(t *Tree, k float64) (*TreePartition, error) {
	return solveTree("minproc", t, k)
}

// MinProcessorsPath solves processor minimization on a linear task graph by
// optimal first-fit.
func MinProcessorsPath(p *Path, k float64) (*PathPartition, error) {
	return solvePath("minproc-path", p, k, SolveOptions{})
}

// PartitionTree runs the paper's full pipeline: bottleneck minimization,
// contraction, processor minimization (§2.2).
func PartitionTree(t *Tree, k float64) (*TreePartition, error) {
	return solveTree("partition-tree", t, k)
}

// MaxMinPath partitions a linear task graph into exactly parts components
// maximizing the minimum component weight (arXiv 1711.00599).
func MaxMinPath(p *Path, parts int) (*PathPartition, error) {
	return solvePath("maxmin-path", p, float64(parts), SolveOptions{})
}

// MaxMinTree partitions a tree task graph into exactly parts components
// maximizing the minimum component weight (arXiv 1711.00599).
func MaxMinTree(t *Tree, parts int) (*TreePartition, error) {
	return solveTree("maxmin-tree", t, float64(parts))
}

// SumOfMaxTree partitions a tree task graph into exactly parts components
// minimizing the sum of per-component maximum task weights (arXiv
// 2503.11526).
func SumOfMaxTree(t *Tree, parts int) (*TreePartition, error) {
	return solveTree("summax-tree", t, float64(parts))
}

// CheckPathFeasible verifies the execution-time bound for a path cut.
func CheckPathFeasible(p *Path, cut []int, k float64) error {
	return core.CheckPathFeasible(p, cut, k)
}

// CheckTreeFeasible verifies the execution-time bound for a tree cut. It
// checks t first (a frozen tree passes at once).
func CheckTreeFeasible(t *Tree, cut []int, k float64) error {
	if err := t.Validate(); err != nil {
		return err
	}
	return core.CheckTreeFeasible(t, cut, k)
}

// MapComponents maps partition components onto a shared-memory machine
// (identity mapping, §3).
func MapComponents(m *Machine, numComponents int) (*Mapping, error) {
	return arch.MapComponents(m, numComponents)
}

// EvaluatePath computes partition quality metrics for a path cut.
func EvaluatePath(m *Machine, p *Path, cut []int) (*Metrics, error) {
	return arch.EvaluatePath(m, p, cut)
}

// EvaluateTree computes partition quality metrics for a tree cut.
func EvaluateTree(m *Machine, t *Tree, cut []int) (*Metrics, error) {
	return arch.EvaluateTree(m, t, cut)
}

// ReadPath parses a path in the line-oriented text format.
func ReadPath(r io.Reader) (*Path, error) { return graph.ReadPath(r) }

// ReadTree parses a tree in the line-oriented text format.
func ReadTree(r io.Reader) (*Tree, error) { return graph.ReadTree(r) }

// WritePath writes a path in the text format.
func WritePath(w io.Writer, p *Path) error { return graph.WritePath(w, p) }

// WriteTree writes a tree in the text format.
func WriteTree(w io.Writer, t *Tree) error { return graph.WriteTree(w, t) }
