package engine

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// batchIndexKey carries a request's index within its Batch.Run call, so the
// engine can attribute the solve's Event to the right batch item.
type batchIndexKey struct{}

// batchIndexFrom returns the batch index carried by ctx, or -1 for a
// standalone solve.
func batchIndexFrom(ctx context.Context) int {
	if v, ok := ctx.Value(batchIndexKey{}).(int); ok {
		return v
	}
	return -1
}

// Batch runs many solve requests concurrently on a bounded worker pool.
// The zero value is ready to use: GOMAXPROCS workers, no default deadline.
type Batch struct {
	// Workers bounds the number of concurrent solves; <= 0 means
	// GOMAXPROCS.
	Workers int
	// Timeout is the default per-request deadline, applied to requests
	// whose own Options.Timeout is zero; 0 means none.
	Timeout time.Duration
	// Observer, when non-nil, is attached to requests that carry no
	// observer of their own. It must be safe for concurrent use.
	Observer Observer
}

// BatchItem is the outcome of one request: exactly one of Result (Err nil)
// or Err is meaningful.
type BatchItem struct {
	Result Result
	Err    error
}

// BatchStats aggregates a batch run.
type BatchStats struct {
	// Requests is the number of requests submitted.
	Requests int
	// Solved and Failed partition Requests by outcome.
	Solved, Failed int
	// Wall is the batch's end-to-end wall time.
	Wall time.Duration
	// TotalSolveTime sums the per-solve durations; TotalSolveTime/Wall is
	// the effective parallelism.
	TotalSolveTime time.Duration
	// TotalIterations sums solver main-loop iterations.
	TotalIterations int64
}

// BatchResult holds per-request outcomes, index-aligned with the submitted
// requests, plus aggregate stats.
type BatchResult struct {
	Items []BatchItem
	Stats BatchStats
}

// Run solves all requests and returns when every one has finished. Items[i]
// corresponds to reqs[i] regardless of scheduling, so results are
// deterministic per request even though completion order is not. A failing
// request is recorded in its item; it does not stop the batch. Cancelling
// ctx makes remaining solves fail fast with the context's error, which Run
// also returns.
func (b *Batch) Run(ctx context.Context, reqs []Request) (*BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	out := &BatchResult{Items: make([]BatchItem, len(reqs))}
	out.Stats.Requests = len(reqs)
	rid := obs.RequestIDFrom(ctx)
	start := time.Now()
	if workers > 0 {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					req := reqs[i]
					if req.Options.Timeout == 0 && b.Timeout > 0 {
						req.Options.Timeout = b.Timeout
					}
					if req.Options.Observer == nil {
						req.Options.Observer = b.Observer
					}
					// Stamp the item's index (and a derived request ID)
					// into the context so observers can attribute the
					// resulting Event to this batch position.
					ictx := context.WithValue(ctx, batchIndexKey{}, i)
					if rid != "" {
						ictx = obs.WithRequestID(ictx, rid+"#"+strconv.Itoa(i))
					}
					res, err := Solve(ictx, req)
					out.Items[i] = BatchItem{Result: res, Err: err}
				}
			}()
		}
		// Feed every index even once ctx is cancelled: Solve's up-front
		// context check fails the remaining requests immediately, keeping
		// Items fully populated.
		for i := range reqs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	out.Stats.Wall = time.Since(start)
	for _, item := range out.Items {
		if item.Err != nil {
			out.Stats.Failed++
		} else {
			out.Stats.Solved++
		}
		out.Stats.TotalSolveTime += item.Result.Stats.Duration
		out.Stats.TotalIterations += item.Result.Stats.Iterations
	}
	return out, ctx.Err()
}
