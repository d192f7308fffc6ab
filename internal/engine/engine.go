// Package engine is the unified solver entry point for every partitioner in
// this repository. It wraps the algorithm packages (internal/core,
// internal/hitting) behind one context-aware Solve API:
//
//   - Request names a registered solver, carries the task graph and the
//     execution-time bound K, and sets per-solve options (deadline,
//     component cap, observer).
//   - Result carries the cut, the component loads, the partition metrics
//     and per-solve Stats (wall time, main-loop iterations).
//   - Solver is the interface all partitioners are registered under; the
//     registry maps stable names ("bandwidth", "bottleneck", ...) to
//     implementations.
//   - Batch runs many requests concurrently on a bounded worker pool with
//     per-request deadlines and aggregate statistics.
//
// Solve is where a request graph enters the solver layer: each registered
// solver checks it once, inside its instrumented span, before the algorithm
// runs, and the algorithm packages take a valid graph as their
// precondition. A frozen graph (graph.Tree.Freeze) passes that check at
// once: it was checked when it was built and cannot have changed since.
//
// Solvers poll their context inside their main loops, so canceling a context
// aborts a long solve promptly with the context's error. Observers receive
// one Event per completed solve — the hook where a serving layer attaches
// logging, metrics export, or admission control.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Sentinel errors.
var (
	// ErrUnknownSolver is returned by Get and Solve for names that were
	// never registered.
	ErrUnknownSolver = errors.New("engine: unknown solver")
	// ErrBadRequest is returned when a request is structurally invalid for
	// its solver (missing graph, wrong graph kind).
	ErrBadRequest = errors.New("engine: bad request")
	// ErrSolverPanic is wrapped by the *PanicError Solve returns when a
	// solver panics.
	ErrSolverPanic = errors.New("engine: solver panicked")
)

// PanicError is a solver panic recovered by Solve: the panic value and the
// stack of the goroutine that panicked. It wraps ErrSolverPanic.
type PanicError struct {
	Solver string
	Value  any
	Stack  []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: solver %q panicked: %v", e.Solver, e.Value)
}

func (e *PanicError) Unwrap() error { return ErrSolverPanic }

// Kind says which task-graph shape a solver consumes.
type Kind int

const (
	// KindPath solvers partition linear task graphs.
	KindPath Kind = iota + 1
	// KindTree solvers partition tree task graphs (and accept paths, which
	// are trees).
	KindTree
)

// String returns "path" or "tree".
func (k Kind) String() string {
	switch k {
	case KindPath:
		return "path"
	case KindTree:
		return "tree"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Options are the per-solve knobs of a Request.
type Options struct {
	// MaxComponents caps the number of components for solvers that support
	// it ("bandwidth", "bandwidth-limited"); 0 means unlimited.
	MaxComponents int
	// Timeout bounds the solve's wall time; 0 means no deadline beyond the
	// caller's context.
	Timeout time.Duration
	// Observer, when non-nil, receives this solve's Event.
	Observer Observer
}

// Request is one solve: a named solver, a task graph, and the bound K.
// Exactly one of Path or Tree must be set (tree solvers also accept Path).
type Request struct {
	// Solver is the registry name; see Names for the available set.
	Solver string
	// Path is the linear task graph input.
	Path *graph.Path
	// Tree is the tree task graph input.
	Tree *graph.Tree
	// K is the execution-time bound: no component may weigh more than K.
	K float64
	// Options are the per-solve knobs.
	Options Options
}

// Stats is the per-solve work accounting.
type Stats struct {
	// Duration is the solve's wall time.
	Duration time.Duration
	// Iterations counts the solver's main-loop iterations — the
	// size-independent progress measure used for cancellation polling.
	Iterations int64
}

// Result is a completed solve: the cut, its metrics, and Stats. For path
// solvers PathPartition is set; for tree solvers TreePartition.
type Result struct {
	// Solver is the registry name that produced this result.
	Solver string
	// Cut lists the removed edge indices in increasing order.
	Cut []int
	// CutWeight is the total weight of cut edges (the bandwidth).
	CutWeight float64
	// Bottleneck is the largest single cut-edge weight, 0 for an empty cut.
	Bottleneck float64
	// ComponentWeights are the component loads.
	ComponentWeights []float64
	// K is the execution-time bound the partition satisfies.
	K float64
	// Stats is the per-solve work accounting.
	Stats Stats
	// PathPartition is the typed result for path solvers, nil otherwise.
	PathPartition *core.PathPartition
	// TreePartition is the typed result for tree solvers, nil otherwise.
	TreePartition *core.TreePartition
}

// NumComponents returns the number of connected components.
func (r *Result) NumComponents() int { return len(r.ComponentWeights) }

// Solver is a registered partitioning algorithm.
type Solver interface {
	// Name is the registry name.
	Name() string
	// Kind is the graph shape the solver consumes.
	Kind() Kind
	// Objective is what the solver's result optimizes, the criterion
	// internal/verify certifies; ObjectiveUnknown declares none.
	Objective() Objective
	// Solve runs the algorithm. It honors ctx cancellation and
	// req.Options.Timeout, fills Result.Stats, and notifies observers.
	Solve(ctx context.Context, req Request) (Result, error)
}

// Solve looks up req.Solver in the registry and runs it. It is the
// single entry point the facade, the tools and Batch all share. A solver
// panic does not escape: Solve returns it as a *PanicError.
func Solve(ctx context.Context, req Request) (res Result, err error) {
	s, err := Get(req.Solver)
	if err != nil {
		return Result{}, err
	}
	defer func() {
		if v := recover(); v != nil {
			res, err = Result{Solver: req.Solver}, &PanicError{Solver: req.Solver, Value: v, Stack: debug.Stack()}
		}
	}()
	return s.Solve(ctx, req)
}

// instrumented wraps a solve body with the engine's common machinery:
// deadline application, up-front cancellation check, timing, trace span
// management, and observer notification. When the context carries an
// obs.Trace, the solve runs inside a span named after the solver, so the
// phase spans the algorithms open nest under it; without a trace the span
// machinery is a no-op (one context lookup, zero allocations). Errors from
// the body are returned unwrapped so callers can match the algorithm
// packages' sentinel errors.
func instrumented(ctx context.Context, name string, opt Options, body func(context.Context) (Result, int64, error)) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	sctx, span := obs.StartSpan(ctx, name)
	start := time.Now()
	res, iters, err := body(sctx)
	span.End()
	res.Stats.Duration = time.Since(start)
	res.Stats.Iterations = iters
	res.Solver = name
	if err != nil {
		obs.SetAttr(span, "error", err.Error())
	}
	if opt.Observer != nil {
		opt.Observer.Observe(Event{
			Solver:     name,
			Stats:      res.Stats,
			Err:        err,
			RequestID:  obs.RequestIDFrom(ctx),
			BatchIndex: batchIndexFrom(ctx),
			Trace:      obs.FromContext(ctx),
			Phases:     span.PhaseTotals(),
		})
	}
	if err != nil {
		return Result{Solver: name, Stats: res.Stats}, err
	}
	return res, nil
}
