package server

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrQueueFull is returned by Limiter.Acquire when both the concurrency
// slots and the wait queue are saturated; the HTTP layer maps it to
// 429 Too Many Requests with a Retry-After hint.
var ErrQueueFull = errors.New("server: admission queue full")

// Limiter is the admission controller: at most MaxConcurrent solves run at
// once, at most MaxQueue more wait for a slot, and anything beyond that is
// shed immediately. Waiters honor their context, so a queued request whose
// deadline expires (or whose client disconnects) leaves the queue without
// ever starting to solve.
//
// Two classes share the slots. Synchronous requests wait in the bounded
// queue (Acquire); background work waits behind them (AcquireIdle) and only
// takes a slot that no queued request wants.
type Limiter struct {
	slots    chan struct{}
	maxQueue int64
	queued   atomic.Int64

	// idle holds a token that wakes an AcquireIdle waiter to look again;
	// every release and every departure from the queue leaves one, so a
	// change after a waiter's look is never missed.
	idle chan struct{}

	// releaseFn is the one shared release closure; binding l.release at
	// every Acquire would allocate a method value per admission.
	releaseFn func()

	admitted      atomic.Uint64
	shedQueueFull atomic.Uint64
	shedDeadline  atomic.Uint64
}

// NewLimiter builds a limiter admitting maxConcurrent concurrent holders
// with a wait queue of maxQueue. maxConcurrent < 1 is clamped to 1;
// maxQueue < 0 is clamped to 0 (shed immediately when slots are taken).
func NewLimiter(maxConcurrent, maxQueue int) *Limiter {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	l := &Limiter{
		slots:    make(chan struct{}, maxConcurrent),
		maxQueue: int64(maxQueue),
		idle:     make(chan struct{}, 1),
	}
	l.releaseFn = l.release
	return l
}

// TryAcquire obtains a slot only when one is immediately free, never
// queueing. It lets callers skip building a queue-wait context (deadline
// timer and all) on the uncontended path.
func (l *Limiter) TryAcquire() (release func(), ok bool) {
	select {
	case l.slots <- struct{}{}:
		l.admitted.Add(1)
		return l.releaseFn, true
	default:
		return nil, false
	}
}

// Acquire obtains a slot, waiting in the bounded queue if necessary. It
// returns a release function that must be called exactly once, or
// ErrQueueFull when the queue is saturated, or ctx.Err() when the context
// ends while waiting.
func (l *Limiter) Acquire(ctx context.Context) (release func(), err error) {
	if release, ok := l.TryAcquire(); ok {
		return release, nil
	}
	if l.queued.Add(1) > l.maxQueue {
		l.dequeue()
		l.shedQueueFull.Add(1)
		return nil, ErrQueueFull
	}
	defer l.dequeue()
	select {
	case l.slots <- struct{}{}:
		l.admitted.Add(1)
		return l.releaseFn, nil
	case <-ctx.Done():
		l.shedDeadline.Add(1)
		return nil, ctx.Err()
	}
}

// AcquireIdle obtains a slot for background work: it waits, without a
// place in the bounded queue, until a slot is free and no Acquire is queued
// for one, so synchronous requests always go first. It returns a release
// function that must be called exactly once, or ctx.Err() when the context
// ends first. It counts in Admitted but never in the queue or shed counters.
func (l *Limiter) AcquireIdle(ctx context.Context) (release func(), err error) {
	for {
		if l.queued.Load() == 0 {
			if release, ok := l.TryAcquire(); ok {
				l.wakeIdle() // another idle waiter may fit a further free slot
				return release, nil
			}
		}
		select {
		case <-l.idle:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func (l *Limiter) release() {
	<-l.slots
	l.wakeIdle()
}

// dequeue takes a synchronous waiter off the queue. An idle waiter may have
// stood back for it, so it looks again.
func (l *Limiter) dequeue() {
	l.queued.Add(-1)
	l.wakeIdle()
}

func (l *Limiter) wakeIdle() {
	select {
	case l.idle <- struct{}{}:
	default: // a token is already waiting
	}
}

// LimiterStats snapshots the admission counters and gauges.
type LimiterStats struct {
	InFlight      int
	Queued        int
	MaxConcurrent int
	MaxQueue      int
	Admitted      uint64
	ShedQueueFull uint64
	ShedDeadline  uint64
}

// Stats snapshots the limiter. Gauges are instantaneous and may be stale by
// the time the caller reads them.
func (l *Limiter) Stats() LimiterStats {
	return LimiterStats{
		InFlight:      len(l.slots),
		Queued:        int(l.queued.Load()),
		MaxConcurrent: cap(l.slots),
		MaxQueue:      int(l.maxQueue),
		Admitted:      l.admitted.Load(),
		ShedQueueFull: l.shedQueueFull.Load(),
		ShedDeadline:  l.shedDeadline.Load(),
	}
}
