package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestBatchMixedOutcomes runs a batch with a failing request (infeasible K)
// mixed into successes and checks per-index determinism.
func TestBatchMixedOutcomes(t *testing.T) {
	p := testPath(t, 2000)
	tr := testTree(t, 2000)
	kp := 4 * p.MaxNodeWeight()
	kt := 4 * tr.MaxNodeWeight()
	reqs := []Request{
		{Solver: "bandwidth", Path: p, K: kp},
		{Solver: "bandwidth", Path: p, K: 0.5}, // infeasible: fails
		{Solver: "bottleneck", Tree: tr, K: kt},
		{Solver: "no-such-solver", Path: p, K: kp}, // unknown: fails
		{Solver: "minproc", Tree: tr, K: kt},
		{Solver: "bandwidth-deque", Path: p, K: kp},
	}
	b := &Batch{Workers: 3}
	got, err := b.Run(context.Background(), reqs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got.Items) != len(reqs) {
		t.Fatalf("items = %d, want %d", len(got.Items), len(reqs))
	}
	if got.Stats.Solved != 4 || got.Stats.Failed != 2 {
		t.Errorf("stats = %+v, want 4 solved / 2 failed", got.Stats)
	}
	if !errors.Is(got.Items[1].Err, core.ErrInfeasible) {
		t.Errorf("item 1 err = %v, want ErrInfeasible", got.Items[1].Err)
	}
	if !errors.Is(got.Items[3].Err, ErrUnknownSolver) {
		t.Errorf("item 3 err = %v, want ErrUnknownSolver", got.Items[3].Err)
	}
	// Each successful item must match the equivalent sequential solve.
	for _, i := range []int{0, 2, 4, 5} {
		item := got.Items[i]
		if item.Err != nil {
			t.Fatalf("item %d failed: %v", i, item.Err)
		}
		want, err := Solve(context.Background(), reqs[i])
		if err != nil {
			t.Fatalf("sequential solve %d: %v", i, err)
		}
		if item.Result.CutWeight != want.CutWeight || item.Result.NumComponents() != want.NumComponents() {
			t.Errorf("item %d = (w=%v, c=%d), sequential = (w=%v, c=%d)",
				i, item.Result.CutWeight, item.Result.NumComponents(), want.CutWeight, want.NumComponents())
		}
	}
}

// TestBatchBoundedParallelism checks that no more than Workers solves run
// concurrently, via an observer... observers fire after the solve, so
// instead count in-flight solves with a wrapped request set sharing one
// gauge through a custom solver registered for this test.
func TestBatchBoundedParallelism(t *testing.T) {
	var inFlight, peak int64
	var mu sync.Mutex
	probe := &funcSolver{name: "test-probe", kind: KindPath, fn: func(ctx context.Context, req Request) (Result, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		atomic.AddInt64(&inFlight, -1)
		return Result{Solver: "test-probe"}, nil
	}}
	RegisterForTest(t, probe)
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Solver: "test-probe"}
	}
	b := &Batch{Workers: 2}
	if _, err := b.Run(context.Background(), reqs); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if peak > 2 {
		t.Errorf("peak concurrency = %d, want <= 2", peak)
	}
}

// funcSolver is a test-only Solver.
type funcSolver struct {
	name string
	kind Kind
	fn   func(context.Context, Request) (Result, error)
}

func (s *funcSolver) Name() string         { return s.name }
func (s *funcSolver) Kind() Kind           { return s.kind }
func (s *funcSolver) Objective() Objective { return ObjectiveUnknown }
func (s *funcSolver) Solve(ctx context.Context, req Request) (Result, error) {
	return s.fn(ctx, req)
}

func TestBatchEmpty(t *testing.T) {
	b := &Batch{}
	got, err := b.Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got.Items) != 0 || got.Stats.Requests != 0 {
		t.Errorf("empty batch = %+v", got)
	}
}

// TestBatchCancellation cancels the batch context mid-run: every item is
// still populated, the unfinished ones with the context error.
func TestBatchCancellation(t *testing.T) {
	big := testPath(t, 100_000)
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Solver: "bandwidth-naive", Path: big, K: big.TotalNodeWeight() / 2}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	b := &Batch{Workers: 2}
	got, err := b.Run(ctx, reqs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if len(got.Items) != len(reqs) {
		t.Fatalf("items = %d, want %d", len(got.Items), len(reqs))
	}
	for i, item := range got.Items {
		if !errors.Is(item.Err, context.Canceled) {
			t.Errorf("item %d err = %v, want context.Canceled", i, item.Err)
		}
	}
}

// TestBatchPerRequestTimeout: the batch default deadline applies to
// requests without their own.
func TestBatchPerRequestTimeout(t *testing.T) {
	small := testPath(t, 5_000)
	big := testPath(t, 100_000)
	reqs := []Request{
		{Solver: "bandwidth", Path: small, K: 4 * small.MaxNodeWeight()},     // fast, succeeds
		{Solver: "bandwidth-naive", Path: big, K: big.TotalNodeWeight() / 2}, // quadratic, times out
	}
	b := &Batch{Workers: 2, Timeout: 250 * time.Millisecond}
	got, err := b.Run(context.Background(), reqs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Items[0].Err != nil {
		t.Errorf("fast request failed: %v", got.Items[0].Err)
	}
	if !errors.Is(got.Items[1].Err, context.DeadlineExceeded) {
		t.Errorf("slow request err = %v, want DeadlineExceeded", got.Items[1].Err)
	}
}

// TestBatchObserver: the batch observer sees every solve.
func TestBatchObserver(t *testing.T) {
	p := testPath(t, 200)
	k := 4 * p.MaxNodeWeight()
	col := NewCollector()
	reqs := make([]Request, 10)
	for i := range reqs {
		reqs[i] = Request{Solver: "bandwidth", Path: p, K: k}
	}
	b := &Batch{Workers: 4, Observer: col}
	got, err := b.Run(context.Background(), reqs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Stats.Solved != 10 {
		t.Fatalf("solved = %d, want 10", got.Stats.Solved)
	}
	agg := col.Snapshot()["bandwidth"]
	if agg.Solves != 10 {
		t.Errorf("observer saw %d solves, want 10", agg.Solves)
	}
	if got.Stats.TotalIterations != agg.TotalIterations {
		t.Errorf("batch iterations %d != observer iterations %d", got.Stats.TotalIterations, agg.TotalIterations)
	}
}

func BenchmarkEngineOverhead(b *testing.B) {
	r := workload.NewRNG(1)
	p := workload.RandomPath(r, 1000, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	k := 4 * p.MaxNodeWeight()
	req := Request{Solver: "bandwidth", Path: p, K: k}
	ctx := context.Background()
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Solve(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Bandwidth(context.Background(), p, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBatch(b *testing.B) {
	r := workload.NewRNG(1)
	const n = 64
	reqs := make([]Request, n)
	for i := range reqs {
		p := workload.RandomPath(r, 5000, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
		reqs[i] = Request{Solver: "bandwidth", Path: p, K: 4 * p.MaxNodeWeight()}
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("reqs=%d/workers=%d", n, workers), func(b *testing.B) {
			batch := &Batch{Workers: workers}
			for i := 0; i < b.N; i++ {
				res, err := batch.Run(context.Background(), reqs)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Failed != 0 {
					b.Fatalf("%d failed", res.Stats.Failed)
				}
			}
		})
	}
}

// TestBatchSolverPanic: a solver panic fails its own batch item with a
// *PanicError carrying the stack, and leaves the other items solved.
func TestBatchSolverPanic(t *testing.T) {
	RegisterForTest(t, &funcSolver{name: "test-panic", kind: KindPath, fn: func(context.Context, Request) (Result, error) {
		panic("boom")
	}})
	p := testPath(t, 200)
	k := 4 * p.MaxNodeWeight()
	b := &Batch{Workers: 2}
	got, err := b.Run(context.Background(), []Request{
		{Solver: "bandwidth", Path: p, K: k},
		{Solver: "test-panic", Path: p, K: k},
		{Solver: "bandwidth-deque", Path: p, K: k},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Stats.Solved != 2 || got.Stats.Failed != 1 {
		t.Errorf("stats = %+v, want 2 solved / 1 failed", got.Stats)
	}
	var pe *PanicError
	if err := got.Items[1].Err; !errors.Is(err, ErrSolverPanic) || !errors.As(err, &pe) {
		t.Fatalf("item 1 err = %v, want a *PanicError wrapping ErrSolverPanic", err)
	}
	if pe.Solver != "test-panic" || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("panic error = {%q %v %d-byte stack}, want test-panic, boom and a stack", pe.Solver, pe.Value, len(pe.Stack))
	}
}
