// Package verify certifies solver answers independently of the algorithms
// that produced them. Each of the paper's three criteria has a checkable
// optimality characterization:
//
//   - bottleneck (§2.1): feasibility is monotone in the sorted edge prefix,
//     so a bottleneck B is optimal iff cutting every edge strictly lighter
//     than B is infeasible;
//   - processor minimization (§2.2): the Kundu–Misra leaf-pruning greedy is
//     exchange-optimal, giving an independent reference count (plus the
//     ⌈total/K⌉ counting bound);
//   - bandwidth (§2.3): every feasible cut hits all prime critical subpaths,
//     and the greedy dual packing over the ordered-interval instance equals
//     the optimal hitting weight (the interval constraint matrix is totally
//     unimodular), giving a tight lower bound on the cut weight.
//
// The part-count successors of the paper's criteria certify the same way:
//
//   - max–min (arXiv 1711.00599): a partition into exactly p components with
//     minimum weight V is optimal iff no partition fits p components each
//     weighing > V, which the independent Perl–Schach greedy
//     (oracle.MaxPartsOver) decides exactly at threshold V + ε;
//   - sum-of-max (arXiv 2503.11526): the independent map-backed oracle DP
//     (oracle.SumOfMaxDP) recomputes the optimum, sanity-checked from below
//     by the packing-style dual hitting.SumOfMaxPackingBound
//     (arXiv 1410.0462).
//
// A Certificate therefore proves a result right without re-running the
// solver under test: the evidence comes from different code paths
// (internal/prime + internal/hitting for bandwidth, internal/verify/oracle
// for processors, the feasibility checker itself for bottleneck).
//
// CertifyResult is the certify boundary: it checks the request graph once,
// at once for a frozen graph, and refuses a malformed one with the graph
// package's sentinel. The Certify* checkers and the oracles below them take
// a valid graph as their precondition.
//
// The tree oracles walk the columnar adjacency graph.CSR, rooted at vertex 0
// by a BFS whose order and parent columns share the CSR's one []int32, and
// sum each vertex's children in CSR arc order, which is edge-index order,
// the order of graph.Tree.Adjacency: a residual does not depend on the walk
// that reaches it. They import internal/graph and the standard library only
// and share no code with internal/core. Both root through
// graph.Tree.Root0, so a frozen tree's one rooted view serves the solver
// and its certificate alike.
package verify

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hitting"
	"repro/internal/prime"
	"repro/internal/verify/oracle"
)

// ErrNotCertifiable is returned by CertifyResult for solvers that declare no
// objective (engine.ObjectiveUnknown) or for graph/objective combinations
// with no certificate checker.
var ErrNotCertifiable = errors.New("verify: result not certifiable")

// Certificate records the outcome of checking one solver answer.
type Certificate struct {
	// Criterion is the certified objective ("bottleneck", "minprocs",
	// "bandwidth", "maxmin", "summax").
	Criterion string `json:"criterion"`
	// Certified reports whether the cut is feasible AND its objective value
	// matches the independent evidence. False means the certificate could
	// not establish optimality — the answer may still be correct (see
	// Detail), but it is not proven.
	Certified bool `json:"certified"`
	// Objective is the cut's objective value under Criterion.
	Objective float64 `json:"objective"`
	// Bound is the independent evidence compared against Objective: the
	// packing lower bound for bandwidth, the greedy reference count for
	// minprocs, and the strictly-lighter bottleneck threshold probed for
	// bottleneck.
	Bound float64 `json:"bound"`
	// Detail explains a false Certified (infeasible cut, bound gap, binding
	// component cap, …). Empty when certified.
	Detail string `json:"detail,omitempty"`
}

// eps returns the comparison tolerance for an objective value v: floating
// accumulation differs between solver and evidence, so exact equality is too
// strict for large weights.
func eps(v float64) float64 {
	return 1e-9 * math.Max(1, math.Abs(v))
}

// CertifyBottleneck checks that cut is feasible for (t, K) and that its
// bottleneck — the heaviest cut-edge weight — is minimal. Optimality
// evidence: cut every edge strictly lighter than the claimed bottleneck;
// adding edges to a tree cut only shrinks components, so that maximal cut is
// feasible iff some cut with a strictly smaller bottleneck is. Each
// feasibility check labels T − cut: O(n) on a frozen tree, by a walk over its
// rooted view, and O(n α(n)) by union-find otherwise.
func CertifyBottleneck(t *graph.Tree, k float64, cut []int) (*Certificate, error) {
	cut = graph.NormalizeCut(cut)
	cert := &Certificate{Criterion: "bottleneck"}
	b, err := t.MaxCutEdgeWeight(cut)
	if err != nil {
		return nil, err
	}
	cert.Objective = b
	if err := core.CheckTreeFeasible(t, cut, k); err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			cert.Detail = err.Error()
			return cert, nil
		}
		return nil, err
	}
	if b == 0 {
		// Edge weights are non-negative: a zero bottleneck cannot be beaten.
		cert.Certified = true
		return cert, nil
	}
	lighter := make([]int, 0, t.NumEdges())
	for i, e := range t.Edges {
		if e.W < b {
			lighter = append(lighter, i)
		}
	}
	cert.Bound = b
	if err := core.CheckTreeFeasible(t, lighter, k); err == nil {
		cert.Detail = fmt.Sprintf("a feasible cut exists using only edges lighter than %v", b)
		return cert, nil
	} else if !errors.Is(err, core.ErrInfeasible) {
		return nil, err
	}
	cert.Certified = true
	return cert, nil
}

// CertifyProcMin checks that cut is feasible for (t, K) and uses the minimum
// possible number of components. Evidence: an independent Kundu–Misra greedy
// (oracle.MinComponentsTree) plus the ⌈total weight / K⌉ counting bound.
func CertifyProcMin(t *graph.Tree, k float64, cut []int) (*Certificate, error) {
	cut = graph.NormalizeCut(cut)
	// Removing an edge from a tree always splits one component in two.
	comps := len(cut) + 1
	cert := &Certificate{Criterion: "minprocs", Objective: float64(comps)}
	if err := core.CheckTreeFeasible(t, cut, k); err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			cert.Detail = err.Error()
			return cert, nil
		}
		return nil, err
	}
	ref, _, err := oracle.MinComponentsTree(t, k)
	if err != nil {
		// The cut above was feasible, so the instance cannot be infeasible.
		return nil, err
	}
	cert.Bound = float64(ref)
	if counting := int(math.Ceil(t.TotalNodeWeight() / k)); ref < counting {
		return nil, fmt.Errorf("verify: internal error: greedy count %d below counting bound %d", ref, counting)
	}
	if comps != ref {
		cert.Detail = fmt.Sprintf("cut uses %d components, minimum is %d", comps, ref)
		return cert, nil
	}
	cert.Certified = true
	return cert, nil
}

// CertifyBandwidth checks that cut is feasible for (p, K) and that its total
// weight is minimal. Evidence: any feasible cut hits every prime critical
// subpath, so its weight is at least the optimal hitting weight of the
// compressed instance, which the greedy dual packing (hitting.PackingBound)
// computes exactly. A feasible cut whose weight meets that bound is optimal.
func CertifyBandwidth(p *graph.Path, k float64, cut []int) (*Certificate, error) {
	cut = graph.NormalizeCut(cut)
	cert := &Certificate{Criterion: "bandwidth"}
	w, err := p.CutWeight(cut)
	if err != nil {
		return nil, err
	}
	cert.Objective = w
	if err := core.CheckPathFeasible(p, cut, k); err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			cert.Detail = err.Error()
			return cert, nil
		}
		return nil, err
	}
	inst, _, err := prime.Analyze(p.NodeW, p.EdgeW, k)
	if err != nil {
		// ErrVertexTooHeavy cannot happen here: the cut was feasible.
		return nil, err
	}
	lb, err := hitting.PackingBound(&hitting.Instance{Beta: inst.Beta, A: inst.A, B: inst.B})
	if err != nil {
		return nil, err
	}
	cert.Bound = lb
	if w > lb+eps(w) {
		cert.Detail = fmt.Sprintf("cut weight %v exceeds the hitting lower bound %v", w, lb)
		return cert, nil
	}
	cert.Certified = true
	return cert, nil
}

// CertifyMaxMin checks that cut splits t into exactly parts components and
// that its minimum component weight V is maximal over all exactly-parts
// partitions. Evidence: the independent Perl–Schach greedy counts the
// maximum number of components a partition can produce with every component
// weighing ≥ V + ε; if even that maximal packing falls short of parts, no
// exactly-parts partition beats V. O(n).
func CertifyMaxMin(t *graph.Tree, parts int, cut []int) (*Certificate, error) {
	cut = graph.NormalizeCut(cut)
	cert := &Certificate{Criterion: "maxmin"}
	ws, err := t.ComponentWeights(cut)
	if err != nil {
		return nil, err
	}
	v := math.Inf(1)
	for _, w := range ws {
		if w < v {
			v = w
		}
	}
	cert.Objective = v
	cert.Bound = v
	if len(ws) != parts {
		cert.Detail = fmt.Sprintf("cut uses %d components, want exactly %d", len(ws), parts)
		return cert, nil
	}
	over, err := oracle.MaxPartsOver(t, v+eps(v))
	if err != nil {
		return nil, err
	}
	if over >= parts {
		cert.Detail = fmt.Sprintf("a %d-component partition with every component > %v exists", parts, v)
		return cert, nil
	}
	cert.Certified = true
	return cert, nil
}

// CertifySumOfMax checks that cut splits t into exactly parts components and
// that the sum of per-component maximum node weights is minimal. Evidence:
// the independent map-backed oracle DP recomputes the optimum, itself
// sanity-checked against the packing-style lower bound (max weight plus the
// parts−1 smallest weights).
func CertifySumOfMax(t *graph.Tree, parts int, cut []int) (*Certificate, error) {
	cut = graph.NormalizeCut(cut)
	cert := &Certificate{Criterion: "summax"}
	ms, err := t.ComponentMaxNodeWeights(cut)
	if err != nil {
		return nil, err
	}
	var s float64
	for _, m := range ms {
		s += m
	}
	cert.Objective = s
	if len(ms) != parts {
		cert.Detail = fmt.Sprintf("cut uses %d components, want exactly %d", len(ms), parts)
		return cert, nil
	}
	opt, err := oracle.SumOfMaxDP(t, parts)
	if err != nil {
		return nil, err
	}
	cert.Bound = opt
	packing, err := hitting.SumOfMaxPackingBound(t.NodeW, parts)
	if err != nil {
		return nil, err
	}
	if opt < packing-eps(packing) {
		return nil, fmt.Errorf("verify: internal error: DP optimum %v below packing bound %v", opt, packing)
	}
	if s > opt+eps(s) {
		cert.Detail = fmt.Sprintf("sum of maxes %v exceeds the DP optimum %v", s, opt)
		return cert, nil
	}
	cert.Certified = true
	return cert, nil
}

// partsOfRequest reads the target component count of a part-count objective
// out of the request's K slot.
func partsOfRequest(req engine.Request) (int, error) {
	if req.K != math.Trunc(req.K) || req.K > math.MaxInt32 || req.K < math.MinInt32 {
		return 0, fmt.Errorf("verify: part count K = %v is not integral: %w", req.K, ErrNotCertifiable)
	}
	return int(req.K), nil
}

// CertifyResult certifies an engine result against its request: the solver's
// declared objective (engine.ObjectiveOf) picks the certificate checker, and
// path inputs are lifted to trees for the tree-criterion checkers exactly as
// treeSolver does. Solvers without a declared objective return
// ErrNotCertifiable.
func CertifyResult(req engine.Request, res *engine.Result) (*Certificate, error) {
	if res == nil {
		return nil, fmt.Errorf("verify: nil result: %w", ErrNotCertifiable)
	}
	s, err := engine.Get(req.Solver)
	if err != nil {
		return nil, err
	}
	// The checkers index the graph's columns: refuse a malformed one first
	// (a frozen one passes at once).
	if req.Tree != nil {
		err = req.Tree.Validate()
	} else if req.Path != nil {
		err = req.Path.Validate()
	}
	if err != nil {
		return nil, err
	}
	asTree := func() (*graph.Tree, error) {
		if req.Tree != nil {
			return req.Tree, nil
		}
		if req.Path != nil {
			return req.Path.AsTree(), nil
		}
		return nil, fmt.Errorf("verify: request has no graph: %w", ErrNotCertifiable)
	}
	switch obj := engine.ObjectiveOf(s); obj {
	case engine.ObjectiveBandwidth:
		if req.Path == nil {
			return nil, fmt.Errorf("verify: bandwidth certificate needs a path graph: %w", ErrNotCertifiable)
		}
		cert, err := CertifyBandwidth(req.Path, req.K, res.Cut)
		if err != nil {
			return nil, err
		}
		if !cert.Certified && req.Options.MaxComponents > 0 {
			cert.Detail += " (component cap set: the capped optimum may legitimately exceed the unconstrained bound)"
		}
		return cert, nil
	case engine.ObjectiveBottleneck:
		t, err := asTree()
		if err != nil {
			return nil, err
		}
		return CertifyBottleneck(t, req.K, res.Cut)
	case engine.ObjectiveMinProcs:
		t, err := asTree()
		if err != nil {
			return nil, err
		}
		return CertifyProcMin(t, req.K, res.Cut)
	case engine.ObjectiveMaxMin:
		t, err := asTree()
		if err != nil {
			return nil, err
		}
		parts, err := partsOfRequest(req)
		if err != nil {
			return nil, err
		}
		return CertifyMaxMin(t, parts, res.Cut)
	case engine.ObjectiveSumOfMax:
		t, err := asTree()
		if err != nil {
			return nil, err
		}
		parts, err := partsOfRequest(req)
		if err != nil {
			return nil, err
		}
		return CertifySumOfMax(t, parts, res.Cut)
	default:
		return nil, fmt.Errorf("verify: solver %q declares objective %v: %w", req.Solver, obj, ErrNotCertifiable)
	}
}
