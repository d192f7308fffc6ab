// Package jobs runs partitioning solves as durable asynchronous jobs. A job
// outlives the HTTP request that submitted it: it waits in a priority- and
// deadline-aware queue until the server's admission limiter grants it a
// solve slot, records its progress in a bounded per-job event ring
// (replayable for SSE resume), and keeps its terminal result until a
// retention janitor reclaims it.
//
// There is no worker pool: one dispatcher waits for a slot (Config.Acquire)
// while jobs are queued and gives it to the queue's top job, so the slot
// count alone bounds running jobs and priority decides who gets each slot.
//
// The pieces:
//
//   - Manager owns the queue, the dispatcher and the job table;
//     Submit/Get/Cancel/List/Shutdown are its surface. Every submission is
//     its own job: deduplicating identical solves is the caller's concern.
//   - Job is one solve: immutable identity plus mutable state guarded by its
//     own mutex. Subscribers pull events with EventsSince — there are no
//     per-subscriber goroutines, so a slow SSE client can never stall the
//     solver.
//   - Event is one progress record (state change or phase span), serialized
//     at publish time so replays are byte-identical.
//
// Lock order is Manager.mu before Job.mu; Job methods never call back into
// the Manager.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"
)

// State is a job's lifecycle state.
type State string

// Job lifecycle: queued → running → one of the three terminal states.
// Cancellation can also take a queued job directly to StateCanceled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether no further transitions (or events) can occur.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Event is one progress record. Data is serialized once at publish time, so
// a replayed event is byte-for-byte the event that was first delivered.
type Event struct {
	// Seq numbers the job's events from 1, with no gaps; it is the SSE
	// event ID, and EventsSince(after) resumes strictly after it.
	Seq uint64 `json:"seq"`
	// Type is the SSE event name: "state" or "phase".
	Type string `json:"type"`
	// Time is when the event was published.
	Time time.Time `json:"time"`
	// Data is the type-specific JSON payload.
	Data json.RawMessage `json:"data,omitempty"`
}

// StatePayload is the Data of "state" events.
type StatePayload struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// Snapshot is a point-in-time view of a job, shaped for the HTTP API.
type Snapshot struct {
	ID       string     `json:"id"`
	State    State      `json:"state"`
	Priority int        `json:"priority,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Deadline *time.Time `json:"deadline,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Events is the sequence number of the latest published event.
	Events uint64 `json:"events"`
}

// Job is one asynchronous solve. The exported fields are immutable after
// Submit; everything else is read through Snapshot, EventsSince and Result.
type Job struct {
	// ID is the job's unique identifier ("j" + 16 hex digits).
	ID string
	// Priority orders the queue: higher runs first.
	Priority int
	// Created is the submission time.
	Created time.Time

	run       RunFunc
	deadline  time.Time // zero means none; set from Spec.Timeout at submit
	submitSeq uint64
	heapIdx   int         // index in the manager's queue, -1 when not queued
	expiry    *time.Timer // fails the job at its deadline if still queued

	// acquire is the manager's Acquire, set when the job starts, for
	// HoldSlot.
	acquire func(context.Context) (func(), error)

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	errMsg   string
	result   any
	canceled bool          // cancel requested (may precede the terminal state)
	cancel   func()        // cancels the running solve's context
	slot     func()        // releases the job's admission slot; nil once released
	seq      uint64        // last published event sequence number
	ring     *eventRing    // recent events, for replay
	notifyCh chan struct{} // closed and replaced on every publish
	doneCh   chan struct{} // closed when the job reaches a terminal state
}

// RunFunc executes the job's solve. It must honor ctx cancellation (the
// manager cancels it on DELETE, job deadline, and forced shutdown); the
// returned value becomes the job's result on nil error. The *Job is the
// handle to publish progress through (PublishSpan) and to give the
// admission slot back early (ReleaseSlot) or take one again (HoldSlot).
type RunFunc func(ctx context.Context, j *Job) (any, error)

// Snapshot returns a consistent view of the job.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:       j.ID,
		State:    j.state,
		Priority: j.Priority,
		Created:  j.Created,
		Error:    j.errMsg,
		Events:   j.seq,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	if !j.deadline.IsZero() {
		t := j.deadline
		s.Deadline = &t
	}
	return s
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the solve's result value; ok is false unless the job
// succeeded.
func (j *Job) Result() (any, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateSucceeded
}

// ReleaseSlot gives the job's admission slot back while it still runs, for
// a run that stops needing it — one waiting on a solve another caller runs.
// The manager releases a slot still held when the job ends; later calls are
// no-ops.
func (j *Job) ReleaseSlot() {
	j.mu.Lock()
	release := j.slot
	j.slot = nil
	j.mu.Unlock()
	if release != nil {
		release()
	}
}

// HoldSlot takes an admission slot again, through the manager's Acquire,
// for a run that gave its slot back and must solve after all. It returns at
// once while the job still holds one.
func (j *Job) HoldSlot(ctx context.Context) error {
	j.mu.Lock()
	held := j.slot != nil
	j.mu.Unlock()
	if held {
		return nil
	}
	release, err := j.acquire(ctx)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.slot = release
	j.mu.Unlock()
	return nil
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// EventsSince returns the buffered events with sequence numbers strictly
// greater than after, a channel that is closed when the next event is
// published, and whether the returned events are the job's last (the job is
// terminal and nothing newer is pending). If after predates the ring's
// oldest retained event the replay has a gap: the ring keeps the latest
// 256 events.
func (j *Job) EventsSince(after uint64) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	evs := j.ring.since(after)
	return evs, j.notifyCh, j.state.Terminal()
}

// publish appends one event to the ring and wakes subscribers. Events after
// the terminal state event are dropped: terminal is the stream's end.
func (j *Job) publish(typ string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return // payloads are this package's own structs; cannot happen
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.publishLocked(typ, data)
}

func (j *Job) publishLocked(typ string, data json.RawMessage) {
	j.seq++
	j.ring.append(Event{Seq: j.seq, Type: typ, Time: time.Now().UTC(), Data: data})
	close(j.notifyCh)
	j.notifyCh = make(chan struct{})
}

// setStateLocked transitions the job and publishes the matching "state"
// event. Callers hold j.mu.
func (j *Job) setStateLocked(s State, errMsg string) {
	j.state = s
	j.errMsg = errMsg
	data, _ := json.Marshal(StatePayload{State: s, Error: errMsg})
	j.publishLocked("state", data)
	if s.Terminal() {
		j.finished = time.Now().UTC()
		close(j.doneCh)
	}
}

// requestCancelLocked flags a running job canceled and aborts its solve.
// Callers hold j.mu and have taken a queued job out of the queue instead;
// terminal jobs are left untouched.
func (j *Job) requestCancelLocked() {
	if j.state.Terminal() {
		return
	}
	j.canceled = true
	j.cancel()
}

// newID returns a fresh job identifier: "j" + 16 hex digits.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("jobs: crypto/rand unavailable: " + err.Error())
	}
	return "j" + hex.EncodeToString(b[:])
}
