// Package core implements the paper's three partitioning algorithms on task
// graphs:
//
//   - Bandwidth minimization for linear task graphs (§2.3, Algorithm 4.1):
//     minimum total cut weight subject to every component weighing ≤ K.
//   - Bottleneck minimization for tree task graphs (§2.1, Algorithm 2.1):
//     minimum max cut-edge weight subject to the same bound.
//   - Processor minimization for tree task graphs (§2.2, Algorithm 2.2):
//     minimum number of components subject to the same bound.
//
// PartitionTree composes them the way §2.2 prescribes: bottleneck
// minimization first, then contraction into super-nodes, then processor
// minimization over the contracted tree.
//
// Each algorithm has one context-aware entry point (ctx.go), the one the
// solver engine registers. A valid graph is its precondition: engine.Solve
// checks the request graph where it enters the solver layer, and nothing
// in this package re-checks it. The two functions reached without the
// engine, BandwidthInstrumented and TradeoffCurve, check their path once.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
)

// Sentinel errors.
var (
	// ErrInfeasible is returned when no cut satisfies the execution-time
	// bound K — some single task already exceeds it.
	ErrInfeasible = errors.New("core: no feasible partition for bound K")
	// ErrBadBound is returned when K is not a positive finite number.
	ErrBadBound = errors.New("core: bound K must be positive and finite")
)

// Partition is the result of partitioning a linear or tree task graph.
type Partition struct {
	// Cut lists the removed edge indices (into Path.EdgeW or Tree.Edges) in
	// increasing order.
	Cut []int
	// CutWeight is the total weight of the cut edges: β(Cut) on a path,
	// δ(Cut) on a tree, the communication ("bandwidth") crossing the
	// partition.
	CutWeight float64
	// Bottleneck is the largest single cut-edge weight, 0 for an empty cut.
	Bottleneck float64
	// ComponentWeights are the component loads, left to right on a path.
	ComponentWeights []float64
	// K is the execution-time bound the partition satisfies.
	K float64
}

// PathPartition and TreePartition name Partition by the graph it cuts.
type (
	PathPartition = Partition
	TreePartition = Partition
)

// NumComponents returns the number of connected components (processors used).
func (pt *Partition) NumComponents() int { return len(pt.ComponentWeights) }

func checkBound(k float64) error {
	if !(k > 0) || math.IsNaN(k) || math.IsInf(k, 0) {
		return fmt.Errorf("K = %v: %w", k, ErrBadBound)
	}
	return nil
}

// newPathPartition assembles a PathPartition from a cut, which callers
// guarantee is sorted and in range; graph.Path.CutSummary still checks it
// once.
func newPathPartition(p *graph.Path, cut []int, k float64) (*Partition, error) {
	cw, bn, ws, err := p.CutSummary(cut)
	if err != nil {
		return nil, err
	}
	return &Partition{
		Cut:              cut,
		CutWeight:        cw,
		Bottleneck:       bn,
		ComponentWeights: ws,
		K:                k,
	}, nil
}

// NewTreePartition builds the Partition of t that cut (increasing edge
// indices) leaves under bound k: cut weight, bottleneck and component
// weights.
func NewTreePartition(t *graph.Tree, cut []int, k float64) (*Partition, error) {
	ws, err := t.ComponentWeights(cut)
	if err != nil {
		return nil, err
	}
	return treePartition(t, cut, ws, k)
}

// treePartition is NewTreePartition with the component weights already
// computed.
func treePartition(t *graph.Tree, cut []int, ws []float64, k float64) (*Partition, error) {
	cw, err := t.CutWeight(cut)
	if err != nil {
		return nil, err
	}
	bn, err := t.MaxCutEdgeWeight(cut)
	if err != nil {
		return nil, err
	}
	return &Partition{
		Cut:              cut,
		CutWeight:        cw,
		Bottleneck:       bn,
		ComponentWeights: ws,
		K:                k,
	}, nil
}

// CheckPathFeasible verifies that cut satisfies the execution-time bound on
// p: every component of P − cut weighs at most K. It returns nil when
// feasible and a descriptive error otherwise. All algorithm outputs in this
// repository are expected to pass this check; tests enforce it.
func CheckPathFeasible(p *graph.Path, cut []int, k float64) error { return checkFeasible(p, cut, k) }

// CheckTreeFeasible verifies that cut satisfies the execution-time bound on
// t, which must be a valid tree.
func CheckTreeFeasible(t *graph.Tree, cut []int, k float64) error { return checkFeasible(t, cut, k) }

// checkFeasible is CheckPathFeasible and CheckTreeFeasible on either graph.
func checkFeasible(g interface {
	MaxComponentWeight(cut []int) (float64, error)
}, cut []int, k float64) error {
	if err := checkBound(k); err != nil {
		return err
	}
	m, err := g.MaxComponentWeight(cut)
	if err != nil {
		return err
	}
	if m > k {
		return fmt.Errorf("component weight %v exceeds K=%v: %w", m, k, ErrInfeasible)
	}
	return nil
}
