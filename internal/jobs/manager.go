package jobs

import (
	"container/heap"
	"context"
	"errors"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// Sentinel errors.
var (
	// ErrQueueFull is returned by Submit when the pending queue is at
	// capacity.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrShuttingDown is returned by Submit after Shutdown has begun.
	ErrShuttingDown = errors.New("jobs: shutting down")
)

// Config sizes a Manager. The zero value is usable: a 64-deep queue,
// 15-minute retention, and no admission gate.
type Config struct {
	// QueueCap bounds the jobs waiting for a slot; <= 0 means 64.
	QueueCap int
	// Retention is how long terminal jobs stay fetchable; <= 0 means 15
	// minutes.
	Retention time.Duration
	// Acquire gates each job on an admission slot shared with the rest of
	// the server: it blocks until a slot is free or ctx is done, and
	// returns the release function. Each slot goes to the queue's top job.
	// A nil Acquire starts every job as soon as it is queued.
	Acquire func(ctx context.Context) (release func(), err error)
	// Logger receives job lifecycle logs; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Retention <= 0 {
		c.Retention = 15 * time.Minute
	}
	if c.Acquire == nil {
		c.Acquire = func(context.Context) (func(), error) { return func() {}, nil }
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// eventBuffer is the per-job event-ring capacity: the SSE replay window a
// reconnecting client can bridge.
const eventBuffer = 256

// Spec describes one job submission.
type Spec struct {
	// Priority orders the queue; higher runs first.
	Priority int
	// Timeout bounds the job's total lifetime (queue wait included): a job
	// still queued at its deadline fails without running. 0 means none. The
	// deadline is fixed at submission.
	Timeout time.Duration
	// Run is the solve; required.
	Run RunFunc
}

// Stats is a point-in-time view of the manager, shaped for metrics export.
type Stats struct {
	// QueueCap is the queue bound.
	QueueCap int
	// Queued counts jobs waiting for a slot, Running jobs started and not
	// yet terminal.
	Queued, Running int
	// Submitted counts accepted submissions.
	Submitted uint64
	// Succeeded, Failed and Canceled count terminal outcomes.
	Succeeded, Failed, Canceled uint64
	// Retained is the number of jobs currently in the table (all states).
	Retained int
}

// Manager owns the job table, the pending queue and the dispatcher that
// feeds queued jobs to admission slots.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	queue     jobQueue
	jobs      map[string]*Job
	submitSeq uint64
	running   int
	down      bool
	submitted uint64
	succeeded uint64
	failed    uint64
	canceled  uint64

	ready   chan struct{}   // holds a token while the queue may be non-empty
	stopCtx context.Context // ends with Shutdown: stops dispatcher and janitor
	stop    context.CancelFunc
	wg      sync.WaitGroup // the dispatcher, the janitor and running jobs
}

// New starts a manager with its dispatcher and retention janitor. Shutdown
// must be called to release them.
func New(cfg Config) *Manager {
	m := &Manager{
		cfg:   cfg.withDefaults(),
		jobs:  make(map[string]*Job),
		ready: make(chan struct{}, 1),
	}
	m.stopCtx, m.stop = context.WithCancel(context.Background())
	m.wg.Add(2)
	go m.dispatch()
	go m.janitor()
	return m
}

// Config returns the manager's configuration with defaults applied.
func (m *Manager) Config() Config { return m.cfg }

// Submit enqueues a job for spec.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if spec.Run == nil {
		return nil, errors.New("jobs: Spec.Run is required")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return nil, ErrShuttingDown
	}
	if len(m.queue) >= m.cfg.QueueCap {
		return nil, ErrQueueFull
	}
	m.submitSeq++
	now := time.Now().UTC()
	j := &Job{
		ID:        newID(),
		Priority:  spec.Priority,
		Created:   now,
		run:       spec.Run,
		submitSeq: m.submitSeq,
		heapIdx:   -1,
		ring:      newEventRing(eventBuffer),
		notifyCh:  make(chan struct{}),
		doneCh:    make(chan struct{}),
	}
	if spec.Timeout > 0 {
		j.deadline = now.Add(spec.Timeout)
		j.expiry = time.AfterFunc(spec.Timeout, func() { m.expire(j) })
	}
	j.mu.Lock()
	j.setStateLocked(StateQueued, "")
	j.mu.Unlock()
	m.jobs[j.ID] = j
	heap.Push(&m.queue, j)
	m.submitted++
	m.cfg.Logger.Info("job queued", "job", j.ID, "priority", j.Priority, "queue_depth", len(m.queue))
	m.signalReady()
	return j, nil
}

// Get returns the job by ID, or nil if unknown (never submitted, or swept
// by the retention janitor).
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// List snapshots every retained job, newest submission first.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	js := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	out := make([]Snapshot, 0, len(js))
	for _, j := range js {
		out = append(out, j.Snapshot())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Created.After(out[b].Created) })
	return out
}

// Cancel requests cancellation of the job. A queued job, which holds no
// slot yet, becomes terminal immediately; a running job's context is
// canceled and its terminal state is recorded when the solver unwinds. The
// returned state is the job's state at the time of the call; found is false
// for unknown IDs.
func (m *Manager) Cancel(id string) (state State, found bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return "", false
	}
	state = j.State()
	if j.heapIdx >= 0 {
		heap.Remove(&m.queue, j.heapIdx)
		m.finishLocked(j, StateCanceled, "canceled before start", nil)
	} else {
		j.mu.Lock()
		j.requestCancelLocked()
		j.mu.Unlock()
	}
	m.cfg.Logger.Info("job cancel requested", "job", id, "state", string(state))
	return state, true
}

// Stats returns current occupancy and lifetime counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		QueueCap:  m.cfg.QueueCap,
		Queued:    len(m.queue),
		Running:   m.running,
		Submitted: m.submitted,
		Succeeded: m.succeeded,
		Failed:    m.failed,
		Canceled:  m.canceled,
		Retained:  len(m.jobs),
	}
}

// Shutdown drains the manager: new submissions are refused, queued jobs are
// canceled immediately, and running jobs get until ctx's deadline to finish
// before their contexts are force-canceled. It returns nil when every
// running job finished within the deadline, ctx.Err() otherwise (they are
// still waited for after the forced cancel — solvers poll their context, so
// that wait is prompt).
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.down = true
	for len(m.queue) > 0 {
		j := heap.Pop(&m.queue).(*Job)
		m.finishLocked(j, StateCanceled, "server shutting down", nil)
	}
	m.mu.Unlock()
	m.stop()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		j.requestCancelLocked()
		j.mu.Unlock()
	}
	m.mu.Unlock()
	<-done
	return ctx.Err()
}

// finishLocked records a job's terminal state: counters and the job's own
// transition. Callers hold m.mu but not j.mu.
func (m *Manager) finishLocked(j *Job, s State, errMsg string, result any) {
	if j.expiry != nil {
		j.expiry.Stop()
	}
	switch s {
	case StateSucceeded:
		m.succeeded++
	case StateFailed:
		m.failed++
	case StateCanceled:
		m.canceled++
	}
	j.mu.Lock()
	j.result = result
	j.setStateLocked(s, errMsg)
	j.mu.Unlock()
	m.cfg.Logger.Info("job finished", "job", j.ID, "state", string(s), "error", errMsg)
}

// signalReady wakes the dispatcher; a token already pending is enough.
func (m *Manager) signalReady() {
	select {
	case m.ready <- struct{}{}:
	default:
	}
}

// dispatch is the manager's one scheduler: it waits for a queued job, then
// for an admission slot, and gives that slot to whichever job tops the
// queue by then, so jobs reach the solver in queue order.
func (m *Manager) dispatch() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ready:
		case <-m.stopCtx.Done():
			return
		}
		release, err := m.cfg.Acquire(m.stopCtx)
		if err != nil {
			return // shutting down
		}
		if !m.start(release) {
			release() // cancels or expiries emptied the queue meanwhile
		}
	}
}

// start runs the queue's top job on its own goroutine, which holds the slot
// until the job is terminal or gives it back early (Job.ReleaseSlot). It
// reports false, leaving the slot to the caller, when the queue is empty.
func (m *Manager) start(release func()) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) == 0 {
		return false
	}
	j := heap.Pop(&m.queue).(*Job)
	if len(m.queue) > 0 {
		m.signalReady()
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if !j.deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.mu.Lock()
	j.cancel = cancel
	j.slot, j.acquire = release, m.cfg.Acquire
	j.started = time.Now().UTC()
	j.setStateLocked(StateRunning, "")
	j.mu.Unlock()
	m.running++
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		result, err := j.run(ctx, j)
		cancel()
		s, msg := finalState(j, err)
		m.mu.Lock()
		m.running--
		m.finishLocked(j, s, msg, result)
		m.mu.Unlock()
		j.ReleaseSlot()
	}()
	return true
}

// expire fails a job whose deadline passed while it waited for a slot.
func (m *Manager) expire(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.heapIdx >= 0 {
		heap.Remove(&m.queue, j.heapIdx)
		m.finishLocked(j, StateFailed, "job deadline exceeded", nil)
	}
}

// finalState maps a solve outcome to the job's terminal state. A context
// error counts as canceled only when cancellation was actually requested;
// a deadline expiry is a failure.
func finalState(j *Job, err error) (State, string) {
	if err == nil {
		return StateSucceeded, ""
	}
	j.mu.Lock()
	canceled := j.canceled
	j.mu.Unlock()
	if canceled && !errors.Is(err, context.DeadlineExceeded) {
		return StateCanceled, "canceled"
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return StateFailed, "job deadline exceeded"
	}
	return StateFailed, err.Error()
}

// janitor periodically drops terminal jobs older than the retention window.
func (m *Manager) janitor() {
	defer m.wg.Done()
	interval := m.cfg.Retention / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.stopCtx.Done():
			return
		case <-t.C:
			m.sweep(time.Now().Add(-m.cfg.Retention))
		}
	}
}

// sweep removes terminal jobs finished before cutoff.
func (m *Manager) sweep(cutoff time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, j := range m.jobs {
		j.mu.Lock()
		gone := j.state.Terminal() && j.finished.Before(cutoff)
		j.mu.Unlock()
		if gone {
			delete(m.jobs, id)
		}
	}
}
