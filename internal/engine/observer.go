package engine

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Event describes one completed solve. Observers receive it after the solve
// finishes, whether it succeeded, failed, or was cancelled.
type Event struct {
	// Solver is the registry name.
	Solver string
	// Stats is the solve's work accounting.
	Stats Stats
	// Err is the solve's error, nil on success.
	Err error
	// RequestID is the correlation ID the context carried
	// (obs.WithRequestID), "" when none. Solves run by Batch get the batch
	// context's ID suffixed with "#<index>" so their events are
	// distinguishable.
	RequestID string
	// BatchIndex is the request's index within its Batch.Run call, or -1
	// for a standalone solve.
	BatchIndex int
	// Trace is the trace the solve ran under (its root may still be open —
	// the caller owns the root span), nil when the context carried none.
	Trace *obs.Trace
	// Phases aggregates the phase spans recorded inside this solve's own
	// span by name; nil when the solve was untraced.
	Phases map[string]obs.PhaseStat
}

// Observer receives solve events. Implementations must be safe for
// concurrent use; Batch invokes them from its worker goroutines.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe calls f.
func (f ObserverFunc) Observe(e Event) { f(e) }

// Aggregate summarizes the solves one Collector saw for one solver name.
type Aggregate struct {
	// Solves counts completed solves, including failed ones.
	Solves int64
	// Errors counts solves that returned an error.
	Errors int64
	// TotalDuration sums wall time across solves.
	TotalDuration time.Duration
	// MaxDuration is the slowest single solve.
	MaxDuration time.Duration
	// TotalIterations sums main-loop iterations across solves.
	TotalIterations int64
}

// Collector is a thread-safe Observer that aggregates per-solver statistics
// — the minimal metrics backend for tools and tests.
type Collector struct {
	mu  sync.Mutex
	per map[string]*Aggregate
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{per: make(map[string]*Aggregate)} }

// Observe records one event.
func (c *Collector) Observe(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := c.per[ev.Solver]
	if agg == nil {
		agg = &Aggregate{}
		c.per[ev.Solver] = agg
	}
	agg.Solves++
	if ev.Err != nil {
		agg.Errors++
	}
	agg.TotalDuration += ev.Stats.Duration
	if ev.Stats.Duration > agg.MaxDuration {
		agg.MaxDuration = ev.Stats.Duration
	}
	agg.TotalIterations += ev.Stats.Iterations
}

// Snapshot returns a copy of the per-solver aggregates.
func (c *Collector) Snapshot() map[string]Aggregate {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]Aggregate, len(c.per))
	for name, agg := range c.per {
		out[name] = *agg
	}
	return out
}
