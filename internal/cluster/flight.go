package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// errFlightPanic is what waiters observe when the leader's function panics:
// the panic propagates in the leader's goroutine, and everyone who joined
// the flight gets this error instead of hanging forever.
var errFlightPanic = errors.New("cluster: singleflight leader panicked")

// flightCall is one in-flight execution; joiners wait on done and then read
// val/err, which the leader writes before closing it. refs is guarded by the
// Group's mutex.
type flightCall[V any] struct {
	done   chan struct{}
	val    V
	err    error
	refs   int                // callers still waiting, the leader included
	cancel context.CancelFunc // cancels fn's context
}

// Group is a duplicate-call suppressor (a "single-flight" group): concurrent
// DoContext calls with the same key execute fn exactly once and share the one
// result. It is the dedup layer in front of the solve engine — N identical
// cache misses perform one solve — and, because forwarded cluster requests
// land on the owner with the same key as its local misses, the same group
// also collapses a cluster-wide thundering herd once requests are routed by
// fingerprint ownership.
//
// A flight is reference-counted: every caller, the leader included, holds a
// reference until it has the result or its own context ends. When the last
// reference drops, fn's context is canceled and the key is forgotten, so the
// next caller leads a fresh flight instead of joining an abandoned one.
//
// Unlike a cache, a Group holds no completed results: as soon as the leader
// finishes, the key is forgotten and the next DoContext runs fn again (by
// then the result cache answers). Errors are shared with every waiter of
// that flight and never retained. The zero value is ready to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[V]

	leads  atomic.Uint64 // executions of fn
	shared atomic.Uint64 // results served from another caller's execution
}

// DoContext executes fn once per concurrent set of callers with the same
// key. The leader (the first caller in) runs fn on its own goroutine stack;
// everyone else calls onJoin (when non-nil) and blocks until the leader
// finishes, then receives the same value and error, with shared = true.
//
// fn's context carries the leader's values and deadline but not its
// cancellation: it is canceled only when every caller has left. A joiner
// whose ctx ends leaves at once with ctx.Err(). A leader whose ctx ends
// still waits for fn — which keeps running while others wait — and then
// returns ctx.Err() instead of fn's result.
func (g *Group[K, V]) DoContext(ctx context.Context, key K, fn func(context.Context) (V, error), onJoin func()) (v V, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[K]*flightCall[V])
	}
	if c, ok := g.calls[key]; ok {
		c.refs++
		g.mu.Unlock()
		if onJoin != nil {
			onJoin()
		}
		select {
		case <-c.done:
			g.shared.Add(1)
			return c.val, true, c.err
		case <-ctx.Done():
			g.leave(key, c)
			return v, true, ctx.Err()
		}
	}
	fctx := context.WithoutCancel(ctx)
	c := &flightCall[V]{done: make(chan struct{}), refs: 1}
	if dl, ok := ctx.Deadline(); ok {
		fctx, c.cancel = context.WithDeadline(fctx, dl)
	} else {
		fctx, c.cancel = context.WithCancel(fctx)
	}
	c.err = errFlightPanic // overwritten on normal return; seen only on panic
	g.calls[key] = c
	g.mu.Unlock()

	g.leads.Add(1)
	stop := context.AfterFunc(ctx, func() { g.leave(key, c) })
	defer func() {
		// Runs on normal return and on panic alike: drop the key so later
		// calls start fresh, then release the waiters. A panic propagates in
		// the leader; waiters see errFlightPanic.
		stop()
		g.mu.Lock()
		if g.calls[key] == c { // else every caller left and a new flight took key
			delete(g.calls, key)
		}
		g.mu.Unlock()
		c.cancel()
		close(c.done)
	}()
	c.val, c.err = fn(fctx)
	if err := ctx.Err(); err != nil {
		return v, false, err
	}
	return c.val, false, c.err
}

// leave drops one caller's reference; the last one out cancels fn and
// forgets the key.
func (g *Group[K, V]) leave(key K, c *flightCall[V]) {
	g.mu.Lock()
	c.refs--
	last := c.refs == 0
	if last && g.calls[key] == c {
		delete(g.calls, key)
	}
	g.mu.Unlock()
	if last {
		c.cancel()
	}
}

// Stats reports how many flights were led (fn executions) and how many
// callers were served by joining another caller's flight.
func (g *Group[K, V]) Stats() (leads, shared uint64) {
	return g.leads.Load(), g.shared.Load()
}
