package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestBatchParentCancelDrainsWorkers cancels the parent context while every
// worker is blocked inside a solve. All outstanding requests must come back
// with the context error — in-flight ones because the solvers poll their
// context, never-started ones because Solve fails fast — and the worker pool
// must wind down without leaking goroutines.
func TestBatchParentCancelDrainsWorkers(t *testing.T) {
	started := make(chan struct{}, 64)
	RegisterForTest(t, &funcSolver{name: "test-cancel-blocker", kind: KindPath,
		fn: func(ctx context.Context, req Request) (Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			return Result{}, ctx.Err()
		}})

	before := runtime.NumGoroutine()
	reqs := make([]Request, 32)
	for i := range reqs {
		reqs[i] = Request{Solver: "test-cancel-blocker"}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers = 4
	done := make(chan struct {
		res *BatchResult
		err error
	}, 1)
	go func() {
		b := &Batch{Workers: workers}
		res, err := b.Run(ctx, reqs)
		done <- struct {
			res *BatchResult
			err error
		}{res, err}
	}()

	// Wait until every worker is provably mid-solve, then pull the rug.
	for i := 0; i < workers; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("workers never started solving")
		}
	}
	cancel()

	var got struct {
		res *BatchResult
		err error
	}
	select {
	case got = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Batch.Run did not return after cancellation")
	}
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", got.err)
	}
	if len(got.res.Items) != len(reqs) {
		t.Fatalf("items = %d, want %d", len(got.res.Items), len(reqs))
	}
	for i, item := range got.res.Items {
		if !errors.Is(item.Err, context.Canceled) {
			t.Errorf("item %d err = %v, want context.Canceled", i, item.Err)
		}
	}
	if got.res.Stats.Failed != len(reqs) {
		t.Errorf("failed = %d, want %d", got.res.Stats.Failed, len(reqs))
	}

	// The pool's goroutines must all have exited. Poll: the runtime needs a
	// moment to reap them, and unrelated test goroutines add slack.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before batch, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
