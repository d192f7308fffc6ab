package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
)

// This file registers the polynomial-time partitioners of the repository
// (treecut.go registers the NP-hard tree-cut tier). Registry names are part
// of the public surface (the CLI accepts them, README documents them); keep
// them stable.
//
//	bandwidth          — paper §2.3 O(n + p log q) TEMP_S algorithm
//	bandwidth-heap     — O(n log n) lazy-deletion heap baseline
//	bandwidth-deque    — O(n) monotone-deque ablation
//	bandwidth-naive    — O(n·window) naive recurrence evaluation
//	bandwidth-limited  — O(n·m) level-wise DP with a component cap
//	bottleneck         — §2.1 Algorithm 2.1 via one reverse union-find sweep
//	bottleneck-greedy  — paper-faithful O(n²) Algorithm 2.1
//	minproc            — §2.2 Algorithm 2.2 on trees
//	minproc-path       — first-fit processor minimization on paths
//	partition-tree     — §2.2 full pipeline (bottleneck→contract→minproc)
//	maxmin-path        — parametric-search max–min partition of a path
//	maxmin-tree        — parametric-search max–min partition of a tree
//	summax-tree        — exact sum-of-max DP partition of a tree
//
// The maxmin-*/summax-* solvers interpret Request.K as the target component
// count (an integer), not a weight bound — their objectives fix the number
// of parts and optimize the component weights instead.

// pathSolver adapts a context-aware core path algorithm to the Solver
// interface.
type pathSolver struct {
	name      string
	objective Objective
	solve     func(ctx context.Context, req Request) (*core.PathPartition, int64, error)
}

func (s *pathSolver) Name() string         { return s.name }
func (s *pathSolver) Kind() Kind           { return KindPath }
func (s *pathSolver) Objective() Objective { return s.objective }

func (s *pathSolver) Solve(ctx context.Context, req Request) (Result, error) {
	if req.Path == nil {
		return Result{Solver: s.name}, fmt.Errorf("solver %q needs a path graph: %w", s.name, ErrBadRequest)
	}
	return instrumented(ctx, s.name, req.Options, func(ctx context.Context) (Result, int64, error) {
		// The request graph enters the solver layer here, and only here is
		// it checked (at once for a frozen graph): the algorithms take a
		// valid graph as their precondition.
		if err := req.Path.Validate(); err != nil {
			return Result{}, 0, err
		}
		pp, iters, err := s.solve(ctx, req)
		return partitionResult(pp, nil, iters, err)
	})
}

// treeSolver adapts a context-aware core tree algorithm. It accepts a Tree
// request, or a Path request by viewing the path as a tree.
type treeSolver struct {
	name      string
	objective Objective
	solve     func(ctx context.Context, t *graph.Tree, k float64) (*core.TreePartition, int64, error)
}

func (s *treeSolver) Name() string         { return s.name }
func (s *treeSolver) Kind() Kind           { return KindTree }
func (s *treeSolver) Objective() Objective { return s.objective }

func (s *treeSolver) Solve(ctx context.Context, req Request) (Result, error) {
	if req.Tree == nil && req.Path == nil {
		return Result{Solver: s.name}, fmt.Errorf("solver %q needs a tree (or path) graph: %w", s.name, ErrBadRequest)
	}
	return instrumented(ctx, s.name, req.Options, func(ctx context.Context) (Result, int64, error) {
		// The request graph is checked here, once, as in pathSolver. A path
		// is checked before AsTree views it as a tree, which is then a tree
		// by construction.
		t := req.Tree
		if t == nil {
			if err := req.Path.Validate(); err != nil {
				return Result{}, 0, err
			}
			t = req.Path.AsTree()
		} else if err := t.Validate(); err != nil {
			return Result{}, 0, err
		}
		tp, iters, err := s.solve(ctx, t, req.K)
		return partitionResult(nil, tp, iters, err)
	})
}

// partitionResult is the Result of a core solve. The partition it returned
// comes as path or as tree, the other nil, to fill the typed field of that
// name.
func partitionResult(path, tree *core.Partition, iters int64, err error) (Result, int64, error) {
	if err != nil {
		return Result{}, iters, err
	}
	pt := cmp.Or(path, tree)
	return Result{
		Cut:              pt.Cut,
		CutWeight:        pt.CutWeight,
		Bottleneck:       pt.Bottleneck,
		ComponentWeights: pt.ComponentWeights,
		K:                pt.K,
		PathPartition:    path,
		TreePartition:    tree,
	}, iters, nil
}

// partsOf validates the request K of a part-count solver: the target
// component count must be integral (it still travels in the float64 K slot
// of every request shape — CLI flag, JSON, PSV1 frame).
func partsOf(name string, k float64) (int, error) {
	if k != math.Trunc(k) || k > math.MaxInt32 || k < math.MinInt32 {
		return 0, fmt.Errorf("solver %q needs an integral part count K (got %v): %w", name, k, ErrBadRequest)
	}
	return int(k), nil
}

// partsTree lifts a (ctx, tree, parts) algorithm into a treeSolver solve
// function with the integral-K validation applied.
func partsTree(name string, f func(context.Context, *graph.Tree, int) (*core.TreePartition, int64, error)) func(context.Context, *graph.Tree, float64) (*core.TreePartition, int64, error) {
	return func(ctx context.Context, t *graph.Tree, k float64) (*core.TreePartition, int64, error) {
		parts, err := partsOf(name, k)
		if err != nil {
			return nil, 0, err
		}
		return f(ctx, t, parts)
	}
}

// plainPath lifts a (ctx, path, k) algorithm into a request solve function.
func plainPath(f func(context.Context, *graph.Path, float64) (*core.PathPartition, int64, error)) func(context.Context, Request) (*core.PathPartition, int64, error) {
	return func(ctx context.Context, req Request) (*core.PathPartition, int64, error) {
		return f(ctx, req.Path, req.K)
	}
}

func init() {
	// "bandwidth" is the paper's algorithm, with the component cap honored
	// when the request sets one — the common case for machine-sized solves.
	Register(&pathSolver{name: "bandwidth", objective: ObjectiveBandwidth, solve: func(ctx context.Context, req Request) (*core.PathPartition, int64, error) {
		if m := req.Options.MaxComponents; m > 0 {
			return core.BandwidthLimited(ctx, req.Path, req.K, m)
		}
		return core.Bandwidth(ctx, req.Path, req.K)
	}})
	Register(&pathSolver{name: "bandwidth-heap", objective: ObjectiveBandwidth, solve: plainPath(core.BandwidthHeap)})
	Register(&pathSolver{name: "bandwidth-deque", objective: ObjectiveBandwidth, solve: plainPath(core.BandwidthDeque)})
	Register(&pathSolver{name: "bandwidth-naive", objective: ObjectiveBandwidth, solve: plainPath(core.BandwidthNaive)})
	// "bandwidth-limited" passes MaxComponents through verbatim, so the
	// core validation (m must be positive) applies.
	Register(&pathSolver{name: "bandwidth-limited", objective: ObjectiveBandwidth, solve: func(ctx context.Context, req Request) (*core.PathPartition, int64, error) {
		return core.BandwidthLimited(ctx, req.Path, req.K, req.Options.MaxComponents)
	}})
	Register(&pathSolver{name: "minproc-path", objective: ObjectiveMinProcs, solve: plainPath(core.MinProcessorsPath)})
	Register(&pathSolver{name: "maxmin-path", objective: ObjectiveMaxMin, solve: func(ctx context.Context, req Request) (*core.PathPartition, int64, error) {
		parts, err := partsOf("maxmin-path", req.K)
		if err != nil {
			return nil, 0, err
		}
		return core.MaxMinPath(ctx, req.Path, parts)
	}})

	Register(&treeSolver{name: "bottleneck", objective: ObjectiveBottleneck, solve: core.Bottleneck})
	Register(&treeSolver{name: "bottleneck-greedy", objective: ObjectiveBottleneck, solve: core.BottleneckGreedy})
	Register(&treeSolver{name: "minproc", objective: ObjectiveMinProcs, solve: core.MinProcessors})
	// partition-tree minimizes processors *subject to* the optimal
	// bottleneck; its certified objective is the bottleneck value.
	Register(&treeSolver{name: "partition-tree", objective: ObjectiveBottleneck, solve: core.PartitionTree})
	Register(&treeSolver{name: "maxmin-tree", objective: ObjectiveMaxMin, solve: partsTree("maxmin-tree", core.MaxMinTree)})
	Register(&treeSolver{name: "summax-tree", objective: ObjectiveSumOfMax, solve: partsTree("summax-tree", core.SumOfMaxTree)})
}
