package core

import "context"

// Context-aware solver entry points. Every partitioner in this package has
// exactly one entry point, X(ctx, graph, bound) (partition, iterations,
// error). It takes a valid graph as its precondition (the solver engine
// checks a request's graph once, before the entry point runs), polls ctx for
// cancellation inside its main loop, and reports the number of loop
// iterations it performed, so callers (the solver engine) can abort long
// solves and account per-solve work.

// tickMask controls how often loops poll ctx: every tickMask+1 iterations.
// 256 keeps the polling branch far off the hot path while bounding the
// cancellation latency to a few microseconds of solver work.
const tickMask = 1<<8 - 1

// ticker counts main-loop iterations and periodically polls a context so
// long solves observe cancellation without a per-iteration atomic load.
type ticker struct {
	ctx context.Context
	n   int64
}

func newTicker(ctx context.Context) *ticker {
	if ctx == nil {
		ctx = context.Background()
	}
	return &ticker{ctx: ctx}
}

// tick records one iteration and returns the context's error on the polling
// iterations once it is cancelled.
func (t *ticker) tick() error {
	t.n++
	if t.n&tickMask == 0 {
		return t.ctx.Err()
	}
	return nil
}

// enter normalizes ctx and rejects already-cancelled contexts up front, so a
// cancelled solve never starts working regardless of instance size.
func enter(ctx context.Context) (context.Context, error) {
	if ctx == nil {
		return context.Background(), nil
	}
	return ctx, ctx.Err()
}
