package verify

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/workload"
)

func mustPath(t *testing.T, nodeW, edgeW []float64) *graph.Path {
	t.Helper()
	p, err := graph.NewPath(nodeW, edgeW)
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	return p
}

func mustTree(t *testing.T, nodeW []float64, edges []graph.Edge) *graph.Tree {
	t.Helper()
	tr, err := graph.NewTree(nodeW, edges)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	return tr
}

// fixtureTree is a 4-path (as a tree) with tasks 2,2,2,2 and edge weights
// 5,1,9. With K=4 the optimal bottleneck and bandwidth both cut only edge 1
// (weight 1), yielding components {0,1} and {2,3}; 2 components is minimal.
func fixtureTree(t *testing.T) *graph.Tree {
	return mustTree(t, []float64{2, 2, 2, 2}, []graph.Edge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 9},
	})
}

func TestCertifyBottleneck(t *testing.T) {
	tr := fixtureTree(t)
	cert, err := CertifyBottleneck(tr, 4, []int{1})
	if err != nil {
		t.Fatalf("CertifyBottleneck: %v", err)
	}
	if !cert.Certified || cert.Objective != 1 {
		t.Errorf("optimal cut not certified: %+v", cert)
	}
	// Mutation: a feasible cut through the weight-5 edge claims bottleneck 5;
	// the certificate must catch that a lighter feasible cut exists.
	cert, err = CertifyBottleneck(tr, 4, []int{0, 1})
	if err != nil {
		t.Fatalf("CertifyBottleneck(corrupt): %v", err)
	}
	if cert.Certified {
		t.Errorf("suboptimal bottleneck 5 must not certify: %+v", cert)
	}
	if cert.Objective != 5 || !strings.Contains(cert.Detail, "lighter") {
		t.Errorf("unexpected evidence: %+v", cert)
	}
	// Infeasible cut: leaves component {0,1,2} of weight 6 > 4.
	cert, err = CertifyBottleneck(tr, 4, []int{2})
	if err != nil {
		t.Fatalf("CertifyBottleneck(infeasible): %v", err)
	}
	if cert.Certified {
		t.Errorf("infeasible cut must not certify: %+v", cert)
	}
	// Empty cut under a generous bound: bottleneck 0 is unbeatable.
	cert, err = CertifyBottleneck(tr, 100, nil)
	if err != nil {
		t.Fatalf("CertifyBottleneck(empty): %v", err)
	}
	if !cert.Certified || cert.Objective != 0 {
		t.Errorf("empty cut under large K: %+v", cert)
	}
	// Malformed cut index: error, not a false certificate.
	if _, err := CertifyBottleneck(tr, 4, []int{99}); !errors.Is(err, graph.ErrBadCut) {
		t.Errorf("out-of-range cut = %v, want ErrBadCut", err)
	}
}

// TestCertifyBottleneckFrozen: on a frozen tree, which labels T minus the
// lighter edges by walking its rooted view, CertifyBottleneck gives the
// certificate the unfrozen tree gives, for the solver's cut and for that
// cut with one more edge, on float and on tie-heavy integer weights.
func TestCertifyBottleneckFrozen(t *testing.T) {
	r := workload.NewRNG(4)
	for trial := 0; trial < 300; trial++ {
		tr := workload.RandomTree(r, 2+r.Intn(100), workload.UniformWeights(0, 10), workload.UniformWeights(0, 10))
		if trial%2 == 1 {
			for i := range tr.Edges {
				tr.Edges[i].W = float64(r.Intn(4))
			}
		}
		frozen := tr.Clone()
		frozen.Freeze()
		k := tr.MaxNodeWeight() * (1 + 3*r.Float64())
		bt, _, err := core.Bottleneck(context.Background(), tr, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range [][]int{bt.Cut, append(slices.Clone(bt.Cut), r.Intn(tr.NumEdges()))} {
			want, werr := CertifyBottleneck(tr, k, cut)
			got, err := CertifyBottleneck(frozen, k, cut)
			if werr != nil || err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d cut %v: frozen %+v, %v; unfrozen %+v, %v", trial, cut, got, err, want, werr)
			}
		}
	}
}

func TestCertifyProcMin(t *testing.T) {
	tr := fixtureTree(t)
	cert, err := CertifyProcMin(tr, 4, []int{1})
	if err != nil {
		t.Fatalf("CertifyProcMin: %v", err)
	}
	if !cert.Certified || cert.Objective != 2 || cert.Bound != 2 {
		t.Errorf("optimal 2-component cut not certified: %+v", cert)
	}
	// Mutation: an extra unnecessary cut edge inflates the component count.
	cert, err = CertifyProcMin(tr, 4, []int{0, 1})
	if err != nil {
		t.Fatalf("CertifyProcMin(corrupt): %v", err)
	}
	if cert.Certified {
		t.Errorf("3 components when 2 suffice must not certify: %+v", cert)
	}
	if !strings.Contains(cert.Detail, "minimum is 2") {
		t.Errorf("unexpected evidence: %+v", cert)
	}
	// Infeasible cut.
	cert, err = CertifyProcMin(tr, 4, nil)
	if err != nil {
		t.Fatalf("CertifyProcMin(infeasible): %v", err)
	}
	if cert.Certified {
		t.Errorf("infeasible empty cut must not certify: %+v", cert)
	}
}

func TestCertifyBandwidth(t *testing.T) {
	p := mustPath(t, []float64{2, 2, 2, 2}, []float64{5, 1, 9})
	cert, err := CertifyBandwidth(p, 4, []int{1})
	if err != nil {
		t.Fatalf("CertifyBandwidth: %v", err)
	}
	if !cert.Certified || cert.Objective != 1 || cert.Bound != 1 {
		t.Errorf("optimal cut not certified: %+v", cert)
	}
	// Mutation: a feasible but heavier cut (edges 0 and 2, weight 14).
	cert, err = CertifyBandwidth(p, 4, []int{0, 2})
	if err != nil {
		t.Fatalf("CertifyBandwidth(corrupt): %v", err)
	}
	if cert.Certified {
		t.Errorf("cut weight 14 over bound 1 must not certify: %+v", cert)
	}
	if !strings.Contains(cert.Detail, "lower bound") {
		t.Errorf("unexpected evidence: %+v", cert)
	}
	// Infeasible cut.
	cert, err = CertifyBandwidth(p, 4, nil)
	if err != nil {
		t.Fatalf("CertifyBandwidth(infeasible): %v", err)
	}
	if cert.Certified {
		t.Errorf("infeasible empty cut must not certify: %+v", cert)
	}
	// No prime subpaths: the empty cut is optimal.
	cert, err = CertifyBandwidth(p, 100, nil)
	if err != nil {
		t.Fatalf("CertifyBandwidth(empty): %v", err)
	}
	if !cert.Certified || cert.Objective != 0 {
		t.Errorf("empty cut under large K: %+v", cert)
	}
}

func TestCertifyResultDispatch(t *testing.T) {
	p := mustPath(t, []float64{2, 2, 2, 2}, []float64{5, 1, 9})
	for _, solver := range []string{"bandwidth", "minproc-path", "bottleneck", "partition-tree"} {
		req := engine.Request{Solver: solver, Path: p, K: 4}
		res, err := engine.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: Solve: %v", solver, err)
		}
		cert, err := CertifyResult(req, &res)
		if err != nil {
			t.Fatalf("%s: CertifyResult: %v", solver, err)
		}
		if !cert.Certified {
			t.Errorf("%s: result not certified: %+v", solver, cert)
		}
	}
}

func TestCertifyResultErrors(t *testing.T) {
	p := mustPath(t, []float64{1, 1}, []float64{1})
	req := engine.Request{Solver: "no-such-solver", Path: p, K: 2}
	if _, err := CertifyResult(req, &engine.Result{}); !errors.Is(err, engine.ErrUnknownSolver) {
		t.Errorf("unknown solver = %v, want ErrUnknownSolver", err)
	}
	req = engine.Request{Solver: "bandwidth", K: 2}
	if _, err := CertifyResult(req, &engine.Result{}); !errors.Is(err, ErrNotCertifiable) {
		t.Errorf("missing graph = %v, want ErrNotCertifiable", err)
	}
	if _, err := CertifyResult(engine.Request{Solver: "bandwidth", Path: p, K: 2}, nil); !errors.Is(err, ErrNotCertifiable) {
		t.Errorf("nil result = %v, want ErrNotCertifiable", err)
	}
}

// A solver registered without an Objective declaration must be reported as
// not certifiable rather than mis-certified.
type anonSolver struct{}

func (anonSolver) Name() string                { return "verify-test-anon" }
func (anonSolver) Kind() engine.Kind           { return engine.KindPath }
func (anonSolver) Objective() engine.Objective { return engine.ObjectiveUnknown }
func (anonSolver) Solve(ctx context.Context, req engine.Request) (engine.Result, error) {
	return engine.Result{}, nil
}

func TestCertifyResultUnknownObjective(t *testing.T) {
	engine.RegisterForTest(t, anonSolver{})
	p := mustPath(t, []float64{1, 1}, []float64{1})
	req := engine.Request{Solver: "verify-test-anon", Path: p, K: 2}
	if _, err := CertifyResult(req, &engine.Result{}); !errors.Is(err, ErrNotCertifiable) {
		t.Errorf("undeclared objective = %v, want ErrNotCertifiable", err)
	}
}

func TestCertifyBandwidthCapDetail(t *testing.T) {
	// With a binding component cap the solver may legitimately return a cut
	// heavier than the unconstrained bound; the certificate must decline to
	// certify but say why.
	// Unconstrained optimum cuts edges 0 and 2 (weight 2, 3 components);
	// capped at 2 components the only feasible cut is edge 1 (weight 10).
	p := mustPath(t, []float64{2, 2, 2, 2}, []float64{1, 10, 1})
	req := engine.Request{Solver: "bandwidth-limited", Path: p, K: 4,
		Options: engine.Options{MaxComponents: 2}}
	res, err := engine.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	cert, err := CertifyResult(req, &res)
	if err != nil {
		t.Fatalf("CertifyResult: %v", err)
	}
	if cert.Certified {
		// The cap did not bind for this instance; the test premise failed.
		t.Fatalf("expected the 2-component cap to bind: %+v (cut %v)", cert, res.Cut)
	}
	if !strings.Contains(cert.Detail, "component cap") {
		t.Errorf("Detail should mention the component cap: %+v", cert)
	}
}

// Non-infeasibility errors from the feasibility layer (bad bound, malformed
// graph) must pass through as errors, never as uncertified certificates.
func TestCertifyErrorPassThrough(t *testing.T) {
	tr := fixtureTree(t)
	p := mustPath(t, []float64{2, 2, 2, 2}, []float64{5, 1, 9})
	if _, err := CertifyBottleneck(tr, 0, []int{1}); !errors.Is(err, core.ErrBadBound) {
		t.Errorf("CertifyBottleneck(K=0) error = %v, want ErrBadBound", err)
	}
	if _, err := CertifyProcMin(tr, 0, []int{1}); !errors.Is(err, core.ErrBadBound) {
		t.Errorf("CertifyProcMin(K=0) error = %v, want ErrBadBound", err)
	}
	if _, err := CertifyBandwidth(p, 0, []int{1}); !errors.Is(err, core.ErrBadBound) {
		t.Errorf("CertifyBandwidth(K=0) error = %v, want ErrBadBound", err)
	}
	if _, err := CertifyProcMin(tr, 4, []int{99}); !errors.Is(err, graph.ErrBadCut) {
		t.Errorf("CertifyProcMin(bad cut) error = %v, want ErrBadCut", err)
	}
}

// An infeasible cut handed to CertifyProcMin reports uncertified with the
// infeasibility in Detail (mirrors the bottleneck/bandwidth behavior).
func TestCertifyProcMinInfeasibleCut(t *testing.T) {
	tr := fixtureTree(t)
	cert, err := CertifyProcMin(tr, 4, nil) // uncut: total 8 > 4
	if err != nil {
		t.Fatalf("CertifyProcMin: %v", err)
	}
	if cert.Certified || cert.Detail == "" {
		t.Errorf("infeasible cut certified: %+v", cert)
	}
}

// Tree-criterion certificates through CertifyResult need a graph; a request
// with neither path nor tree is not certifiable.
func TestCertifyResultNoGraphTreeCriterion(t *testing.T) {
	for _, solver := range []string{"bottleneck", "minproc"} {
		req := engine.Request{Solver: solver, K: 4}
		if _, err := CertifyResult(req, &engine.Result{}); !errors.Is(err, ErrNotCertifiable) {
			t.Errorf("%s without graph: error = %v, want ErrNotCertifiable", solver, err)
		}
	}
}

// TestCertifyResultMalformedGraphs sends CertifyResult, for every registered
// solver and so every objective, graphs that no decoder has checked. It is
// the certify boundary: each must be refused with one of the graph
// package's sentinels before any checker or oracle indexes it, never with a
// panic.
func TestCertifyResultMalformedGraphs(t *testing.T) {
	for _, solver := range engine.Names() {
		for _, col := range graphtest.MalformedGraphs() {
			t.Run(solver+"/"+col.Name, func(t *testing.T) {
				defer func() {
					if v := recover(); v != nil {
						t.Fatalf("panic: %v", v)
					}
				}()
				req := engine.Request{Solver: solver, Path: col.Path, Tree: col.Tree, K: 2}
				if _, err := CertifyResult(req, &engine.Result{Cut: []int{0}}); !graphtest.IsGraphError(err) {
					t.Errorf("err = %v, want a graph validation error", err)
				}
			})
		}
	}
}
