package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/workload"
)

func testPath(t testing.TB, n int) *graph.Path {
	t.Helper()
	r := workload.NewRNG(1)
	return workload.RandomPath(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
}

func testTree(t testing.TB, n int) *graph.Tree {
	t.Helper()
	r := workload.NewRNG(2)
	return workload.RandomTree(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
}

func TestRegistryLookup(t *testing.T) {
	tests := []struct {
		name    string
		solver  string
		wantErr error
	}{
		{"known bandwidth", "bandwidth", nil},
		{"known tree pipeline", "partition-tree", nil},
		{"unknown", "no-such-solver", ErrUnknownSolver},
		{"empty", "", ErrUnknownSolver},
		{"case sensitive", "Bandwidth", ErrUnknownSolver},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Get(tc.solver)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Get(%q) err = %v, want %v", tc.solver, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Get(%q): %v", tc.solver, err)
			}
			if s.Name() != tc.solver {
				t.Errorf("Name() = %q, want %q", s.Name(), tc.solver)
			}
		})
	}
	// Solve must surface the same error for unknown names.
	if _, err := Solve(context.Background(), Request{Solver: "nope"}); !errors.Is(err, ErrUnknownSolver) {
		t.Errorf("Solve(unknown) err = %v, want ErrUnknownSolver", err)
	}
}

func TestNamesContainsAllPaperAlgorithms(t *testing.T) {
	want := []string{
		"bandwidth", "bandwidth-deque", "bandwidth-heap", "bandwidth-limited",
		"bandwidth-naive", "bottleneck", "bottleneck-greedy", "maxmin-path",
		"maxmin-tree", "minproc", "minproc-path", "partition-tree",
		"summax-tree",
	}
	names := Names()
	got := make(map[string]bool, len(names))
	for _, n := range names {
		got[n] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("Names() missing %q (got %v)", w, names)
		}
	}
}

// TestSolveMatchesDirectCalls checks every registered solver returns exactly
// the partition of the underlying core function.
func TestSolveMatchesDirectCalls(t *testing.T) {
	p := testPath(t, 500)
	tr := testTree(t, 500)
	kp := 4 * p.MaxNodeWeight()
	kt := 4 * tr.MaxNodeWeight()

	tests := []struct {
		solver string
		req    Request
		direct func() ([]int, float64, error)
	}{
		{"bandwidth", Request{Path: p, K: kp}, func() ([]int, float64, error) {
			pp, _, err := core.Bandwidth(context.Background(), p, kp)
			if err != nil {
				return nil, 0, err
			}
			return pp.Cut, pp.CutWeight, nil
		}},
		{"bandwidth-heap", Request{Path: p, K: kp}, func() ([]int, float64, error) {
			pp, _, err := core.BandwidthHeap(context.Background(), p, kp)
			if err != nil {
				return nil, 0, err
			}
			return pp.Cut, pp.CutWeight, nil
		}},
		{"bandwidth-deque", Request{Path: p, K: kp}, func() ([]int, float64, error) {
			pp, _, err := core.BandwidthDeque(context.Background(), p, kp)
			if err != nil {
				return nil, 0, err
			}
			return pp.Cut, pp.CutWeight, nil
		}},
		{"bandwidth-naive", Request{Path: p, K: kp}, func() ([]int, float64, error) {
			pp, _, err := core.BandwidthNaive(context.Background(), p, kp)
			if err != nil {
				return nil, 0, err
			}
			return pp.Cut, pp.CutWeight, nil
		}},
		{"bandwidth-limited", Request{Path: p, K: kp, Options: Options{MaxComponents: 200}}, func() ([]int, float64, error) {
			pp, _, err := core.BandwidthLimited(context.Background(), p, kp, 200)
			if err != nil {
				return nil, 0, err
			}
			return pp.Cut, pp.CutWeight, nil
		}},
		{"minproc-path", Request{Path: p, K: kp}, func() ([]int, float64, error) {
			pp, _, err := core.MinProcessorsPath(context.Background(), p, kp)
			if err != nil {
				return nil, 0, err
			}
			return pp.Cut, pp.CutWeight, nil
		}},
		{"bottleneck", Request{Tree: tr, K: kt}, func() ([]int, float64, error) {
			tp, _, err := core.Bottleneck(context.Background(), tr, kt)
			if err != nil {
				return nil, 0, err
			}
			return tp.Cut, tp.CutWeight, nil
		}},
		{"bottleneck-greedy", Request{Tree: tr, K: kt}, func() ([]int, float64, error) {
			tp, _, err := core.BottleneckGreedy(context.Background(), tr, kt)
			if err != nil {
				return nil, 0, err
			}
			return tp.Cut, tp.CutWeight, nil
		}},
		{"minproc", Request{Tree: tr, K: kt}, func() ([]int, float64, error) {
			tp, _, err := core.MinProcessors(context.Background(), tr, kt)
			if err != nil {
				return nil, 0, err
			}
			return tp.Cut, tp.CutWeight, nil
		}},
		{"partition-tree", Request{Tree: tr, K: kt}, func() ([]int, float64, error) {
			tp, _, err := core.PartitionTree(context.Background(), tr, kt)
			if err != nil {
				return nil, 0, err
			}
			return tp.Cut, tp.CutWeight, nil
		}},
	}
	for _, tc := range tests {
		t.Run(tc.solver, func(t *testing.T) {
			tc.req.Solver = tc.solver
			res, err := Solve(context.Background(), tc.req)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			wantCut, wantW, err := tc.direct()
			if err != nil {
				t.Fatalf("direct: %v", err)
			}
			if len(res.Cut) != len(wantCut) {
				t.Fatalf("cut = %v, want %v", res.Cut, wantCut)
			}
			for i := range res.Cut {
				if res.Cut[i] != wantCut[i] {
					t.Fatalf("cut = %v, want %v", res.Cut, wantCut)
				}
			}
			if res.CutWeight != wantW {
				t.Errorf("cut weight = %v, want %v", res.CutWeight, wantW)
			}
			if res.Solver != tc.solver {
				t.Errorf("Result.Solver = %q, want %q", res.Solver, tc.solver)
			}
			if res.Stats.Duration <= 0 {
				t.Errorf("Stats.Duration = %v, want > 0", res.Stats.Duration)
			}
		})
	}
}

func TestBadRequests(t *testing.T) {
	p := testPath(t, 10)
	tests := []struct {
		name string
		req  Request
	}{
		{"path solver without a graph", Request{Solver: "bandwidth", K: 100}},
		{"path solver with only a tree", Request{Solver: "bandwidth", Tree: testTree(t, 10), K: 100}},
		{"tree solver without a graph", Request{Solver: "bottleneck", K: 100}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Solve(context.Background(), tc.req); !errors.Is(err, ErrBadRequest) {
				t.Errorf("err = %v, want ErrBadRequest", err)
			}
		})
	}
	// A tree solver accepts a path input by converting it.
	res, err := Solve(context.Background(), Request{Solver: "minproc", Path: p, K: 4 * p.MaxNodeWeight()})
	if err != nil {
		t.Fatalf("minproc on path: %v", err)
	}
	if res.TreePartition == nil {
		t.Error("minproc on path: TreePartition not set")
	}
}

// TestCancellation covers the acceptance criterion: a cancelled context
// stops a solve on a ≥100k-node path and returns context.Canceled.
func TestCancellation(t *testing.T) {
	big := testPath(t, 100_000)
	bigTree := testTree(t, 100_000)
	solvers := []struct {
		solver string
		req    Request
	}{
		{"bandwidth", Request{Path: big, K: 4 * big.MaxNodeWeight()}},
		{"bandwidth-heap", Request{Path: big, K: 4 * big.MaxNodeWeight()}},
		{"bandwidth-deque", Request{Path: big, K: 4 * big.MaxNodeWeight()}},
		{"bandwidth-naive", Request{Path: big, K: big.TotalNodeWeight() / 2}},
		{"bottleneck", Request{Tree: bigTree, K: 4 * bigTree.MaxNodeWeight()}},
		{"minproc", Request{Tree: bigTree, K: 4 * bigTree.MaxNodeWeight()}},
		{"partition-tree", Request{Tree: bigTree, K: 4 * bigTree.MaxNodeWeight()}},
	}
	for _, tc := range solvers {
		t.Run("pre-cancelled/"+tc.solver, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			tc.req.Solver = tc.solver
			if _, err := Solve(ctx, tc.req); !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
		})
	}
	// Mid-solve cancellation: bandwidth-naive with K = total weight scans a
	// quadratic window (~5·10⁹ prefix probes at n=100k — minutes of work),
	// so a prompt return proves the in-loop poll fired.
	t.Run("mid-solve", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := Solve(ctx, Request{Solver: "bandwidth-naive", Path: big, K: big.TotalNodeWeight() / 2})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("solve took %v after cancellation, want prompt abort", elapsed)
		}
	})
	// Options.Timeout is the per-request deadline path.
	t.Run("timeout", func(t *testing.T) {
		req := Request{
			Solver:  "bandwidth-naive",
			Path:    big,
			K:       big.TotalNodeWeight() / 2,
			Options: Options{Timeout: 20 * time.Millisecond},
		}
		if _, err := Solve(context.Background(), req); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want context.DeadlineExceeded", err)
		}
	})
}

func TestObserverAndStats(t *testing.T) {
	p := testPath(t, 1000)
	k := 4 * p.MaxNodeWeight()
	col := NewCollector()
	res, err := Solve(context.Background(), Request{
		Solver:  "bandwidth-deque",
		Path:    p,
		K:       k,
		Options: Options{Observer: col},
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Stats.Iterations == 0 {
		t.Error("Stats.Iterations = 0, want > 0")
	}
	snap := col.Snapshot()
	agg, ok := snap["bandwidth-deque"]
	if !ok {
		t.Fatalf("collector missing solver entry: %v", snap)
	}
	if agg.Solves != 1 || agg.Errors != 0 {
		t.Errorf("aggregate = %+v, want 1 solve, 0 errors", agg)
	}
	if agg.TotalIterations != res.Stats.Iterations {
		t.Errorf("aggregate iterations %d != result iterations %d", agg.TotalIterations, res.Stats.Iterations)
	}

	// The observer sees failed solves too.
	var events []Event
	rec := ObserverFunc(func(e Event) { events = append(events, e) })
	if _, err := Solve(context.Background(), Request{Solver: "bandwidth", Path: p, K: -1, Options: Options{Observer: rec}}); err == nil {
		t.Fatal("want error for K = -1")
	}
	if len(events) != 1 || events[0].Err == nil || events[0].Solver != "bandwidth" {
		t.Errorf("observer events = %+v, want one failed bandwidth event", events)
	}
}

func TestErrorPassThrough(t *testing.T) {
	p := testPath(t, 50)
	// Sentinel errors from core must survive the engine unwrapped.
	if _, err := Solve(context.Background(), Request{Solver: "bandwidth", Path: p, K: 0.5}); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("err = %v, want core.ErrInfeasible", err)
	}
	if _, err := Solve(context.Background(), Request{Solver: "bandwidth", Path: p, K: -3}); !errors.Is(err, core.ErrBadBound) {
		t.Errorf("err = %v, want core.ErrBadBound", err)
	}
	if _, err := Solve(context.Background(), Request{Solver: "bandwidth-limited", Path: p, K: 100}); !errors.Is(err, core.ErrBadBound) {
		t.Errorf("bandwidth-limited with MaxComponents=0: err = %v, want core.ErrBadBound", err)
	}
}
