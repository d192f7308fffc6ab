package engine

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/treecut"
)

// This file registers the NP-hard tier: internal/treecut's exact and
// heuristic minimum-weight tree cutters. Theorem 1 puts the general problem
// on the knapsack tier, so these solvers declare ObjectiveNone — there is no
// polynomial certificate or oracle for the verification harness to check
// them against at scale (the brute-force oracle covers them in treecut's own
// tests), and the explicit sentinel makes /v1/solvers and the differential
// harness skip them by policy rather than by zero-value accident. They exist
// in the registry primarily for the async jobs API, where a solve may
// legitimately run past any request/response deadline.
//
//	treecut-exact  — pseudo-polynomial DP, integral weights and integral K
//	treecut-bb     — branch and bound, real weights, ≤ 24 edges
//	treecut-greedy — accumulate-and-cut heuristic, no optimality guarantee

// treecutErr translates treecut sentinels into the engine/core error
// vocabulary the serving layer maps to HTTP statuses.
func treecutErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, treecut.ErrInfeasible):
		return fmt.Errorf("%v: %w", err, core.ErrInfeasible)
	case errors.Is(err, treecut.ErrBadInput), errors.Is(err, treecut.ErrTooLarge):
		return fmt.Errorf("%v: %w", err, ErrBadRequest)
	default:
		return err
	}
}

// liftTreecut adapts a treecut solver to the treeSolver solve signature.
func liftTreecut(f func(context.Context, *graph.Tree, float64) (*treecut.CutResult, int64, error)) func(context.Context, *graph.Tree, float64) (*core.TreePartition, int64, error) {
	return func(ctx context.Context, t *graph.Tree, k float64) (*core.TreePartition, int64, error) {
		cr, iters, err := f(ctx, t, k)
		if err != nil {
			return nil, iters, treecutErr(err)
		}
		cut := cr.Cut
		if cut == nil {
			cut = []int{}
		}
		tp, err := core.NewTreePartition(t, cut, k)
		return tp, iters, err
	}
}

func init() {
	Register(&treeSolver{name: "treecut-exact", objective: ObjectiveNone, solve: liftTreecut(
		func(ctx context.Context, t *graph.Tree, k float64) (*treecut.CutResult, int64, error) {
			if k != math.Trunc(k) || k > math.MaxInt32 {
				return nil, 0, fmt.Errorf("treecut-exact needs an integral K (got %v): %w", k, ErrBadRequest)
			}
			return treecut.TreeBandwidthExact(ctx, t, int(k))
		})})
	Register(&treeSolver{name: "treecut-bb", objective: ObjectiveNone, solve: liftTreecut(treecut.TreeBandwidthBB)})
	Register(&treeSolver{name: "treecut-greedy", objective: ObjectiveNone, solve: liftTreecut(treecut.TreeBandwidthGreedy)})
}
