package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s state = %s, want %s", j.ID, j.State(), want)
}

// checkNoLeak fails the test if the goroutine count does not return to
// within slack of the starting count. Retried because exiting goroutines
// need a beat to unwind.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		now = runtime.NumGoroutine()
		if now <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines: %d before, %d after:\n%s", before, now, buf[:runtime.Stack(buf, true)])
}

// oneSlot is an admission gate with a single slot, so jobs run one at a
// time and the rest wait in the queue.
func oneSlot() func(ctx context.Context) (func(), error) {
	slot := make(chan struct{}, 1)
	return func(ctx context.Context) (func(), error) {
		select {
		case slot <- struct{}{}:
			return func() { <-slot }, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func shutdownNow(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestJobSucceeds(t *testing.T) {
	m := New(Config{})
	defer shutdownNow(t, m)
	j, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		return "answer", nil
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-j.Done()
	if got := j.State(); got != StateSucceeded {
		t.Fatalf("state = %s, want succeeded", got)
	}
	res, ok := j.Result()
	if !ok || res != "answer" {
		t.Fatalf("Result = %v, %v", res, ok)
	}
	snap := j.Snapshot()
	if snap.Started == nil || snap.Finished == nil {
		t.Errorf("snapshot missing timestamps: %+v", snap)
	}
	// Stream: queued, running, succeeded.
	evs, _, terminal := j.EventsSince(0)
	if !terminal {
		t.Error("EventsSince not terminal after Done")
	}
	var states []string
	for _, ev := range evs {
		if ev.Type == "state" {
			states = append(states, string(ev.Data))
		}
	}
	want := []string{`{"state":"queued"}`, `{"state":"running"}`, `{"state":"succeeded"}`}
	if len(states) != len(want) {
		t.Fatalf("state events = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Errorf("state event %d = %s, want %s", i, states[i], want[i])
		}
	}
}

// TestCancelRunning cancels a job mid-solve and checks the manager records a
// terminal canceled state and no goroutine leaks.
func TestCancelRunning(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(Config{Acquire: oneSlot()})
	started := make(chan struct{})
	j, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	state, found := m.Cancel(j.ID)
	if !found || state != StateRunning {
		t.Fatalf("Cancel = %s, %v; want running, true", state, found)
	}
	waitState(t, j, StateCanceled)
	if s := j.Snapshot(); s.Error != "canceled" {
		t.Errorf("error = %q, want canceled", s.Error)
	}
	shutdownNow(t, m)
	checkNoLeak(t, before)
}

// TestCancelQueued cancels a job that never started: terminal immediately,
// and it never runs.
func TestCancelQueued(t *testing.T) {
	m := New(Config{Acquire: oneSlot()})
	defer shutdownNow(t, m)
	gate := make(chan struct{})
	blocker, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		<-gate
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	ran := false
	queued, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		ran = true
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if state, found := m.Cancel(queued.ID); !found || state != StateQueued {
		t.Fatalf("Cancel = %s, %v", state, found)
	}
	if got := queued.State(); got != StateCanceled {
		t.Fatalf("state = %s, want canceled", got)
	}
	close(gate)
	<-blocker.Done()
	if ran {
		t.Error("canceled queued job still ran")
	}
	if st := m.Stats(); st.Canceled != 1 || st.Succeeded != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDeadlineExpiry gives the job a tiny timeout: the solve's context
// expires and the job fails with a deadline message.
func TestDeadlineExpiry(t *testing.T) {
	m := New(Config{Acquire: oneSlot()})
	defer shutdownNow(t, m)
	j, err := m.Submit(Spec{Timeout: 20 * time.Millisecond, Run: func(ctx context.Context, j *Job) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if s := j.Snapshot(); !strings.Contains(s.Error, "deadline") {
		t.Errorf("error = %q, want deadline message", s.Error)
	}
}

// TestDeadlineWhileQueued checks that a job whose deadline passes while it
// waits for a slot fails at the deadline without running.
func TestDeadlineWhileQueued(t *testing.T) {
	m := New(Config{Acquire: oneSlot()})
	defer shutdownNow(t, m)
	gate := make(chan struct{})
	defer close(gate)
	blocker, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		<-gate
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	j, err := m.Submit(Spec{Timeout: 20 * time.Millisecond, Run: func(ctx context.Context, j *Job) (any, error) {
		t.Error("expired job ran")
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if s := j.Snapshot(); !strings.Contains(s.Error, "deadline") || s.Started != nil {
		t.Errorf("snapshot = %+v, want a deadline failure that never started", s)
	}
	if st := m.Stats(); st.Queued != 0 || st.Failed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPriorityAndDeadlineOrder floods a one-slot gate and checks the
// execution order: priority first, then earlier deadline, then submission.
func TestPriorityAndDeadlineOrder(t *testing.T) {
	m := New(Config{Acquire: oneSlot()})
	defer shutdownNow(t, m)
	gate := make(chan struct{})
	blocker, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		<-gate
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)

	var mu sync.Mutex
	var order []string
	mk := func(name string) RunFunc {
		return func(ctx context.Context, j *Job) (any, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil, nil
		}
	}
	// Submitted in scrambled order; expected execution order:
	// high priority first; equal priority by earlier deadline;
	// no-deadline after deadlines; ties by submission.
	var last *Job
	for _, s := range []struct {
		name     string
		priority int
		timeout  time.Duration
	}{
		{"low-late", 0, time.Hour},
		{"low-none", 0, 0},
		{"high", 5, 0},
		{"low-soon", 0, time.Minute},
	} {
		j, err := m.Submit(Spec{Priority: s.priority, Timeout: s.timeout, Run: mk(s.name)})
		if err != nil {
			t.Fatal(err)
		}
		last = j
	}
	close(gate)
	<-last.Done()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n == 4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"high", "low-soon", "low-late", "low-none"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order = %v, want %v", order, want)
	}
}

// TestQueueFull checks Submit refuses when the queue is at capacity, and
// that capacity frees as jobs drain.
func TestQueueFull(t *testing.T) {
	m := New(Config{Acquire: oneSlot(), QueueCap: 2})
	defer shutdownNow(t, m)
	gate := make(chan struct{})
	blocker, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		<-gate
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	quick := func(ctx context.Context, j *Job) (any, error) { return nil, nil }
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(Spec{Run: quick}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := m.Submit(Spec{Run: quick}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow err = %v, want ErrQueueFull", err)
	}
	close(gate)
}

// TestShutdownCancelsQueuedAndRefusesNew checks the drain contract: queued
// jobs become terminal canceled, running jobs are waited for, submissions
// fail, and no goroutines remain.
func TestShutdownCancelsQueuedAndRefusesNew(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(Config{Acquire: oneSlot()})
	gate := make(chan struct{})
	running, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		<-gate
		return "done", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- m.Shutdown(ctx)
	}()
	waitState(t, queued, StateCanceled)
	if _, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) { return nil, nil }}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit during drain err = %v, want ErrShuttingDown", err)
	}
	close(gate) // let the running job finish inside the drain window
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := running.State(); got != StateSucceeded {
		t.Errorf("running job state = %s, want succeeded (finished within drain)", got)
	}
	checkNoLeak(t, before)
}

// TestShutdownForceCancelsAfterDeadline checks a job that ignores the drain
// window is force-canceled once the shutdown context expires.
func TestShutdownForceCancelsAfterDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(Config{Acquire: oneSlot()})
	j, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		<-ctx.Done() // only stops when force-canceled
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	if got := j.State(); got != StateCanceled {
		t.Errorf("state = %s, want canceled", got)
	}
	checkNoLeak(t, before)
}

// TestRetentionSweep checks the janitor drops only terminal jobs older than
// the cutoff.
func TestRetentionSweep(t *testing.T) {
	m := New(Config{Acquire: oneSlot()})
	defer shutdownNow(t, m)
	j, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	m.sweep(time.Now().Add(-time.Hour)) // cutoff in the past: keep
	if m.Get(j.ID) == nil {
		t.Fatal("fresh terminal job swept")
	}
	m.sweep(time.Now().Add(time.Hour)) // cutoff in the future: drop
	if m.Get(j.ID) != nil {
		t.Fatal("terminal job survived sweep")
	}
	if _, found := m.Cancel(j.ID); found {
		t.Error("Cancel found a swept job")
	}
}

// TestEventsSinceResume checks replay: events after a resume point are the
// same records, byte for byte, that a first read returned.
func TestEventsSinceResume(t *testing.T) {
	m := New(Config{Acquire: oneSlot()})
	defer shutdownNow(t, m)
	j, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		j.publish("phase", PhasePayload{Phase: "alpha"})
		j.publish("phase", PhasePayload{Phase: "alpha", End: true, DurationMS: 1.5})
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	all, _, _ := j.EventsSince(0)
	if len(all) != 5 { // queued, running, 2 phases, succeeded
		t.Fatalf("got %d events: %+v", len(all), all)
	}
	for i, ev := range all {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d Seq = %d", i, ev.Seq)
		}
	}
	resumed, _, terminal := j.EventsSince(2)
	if !terminal || len(resumed) != 3 {
		t.Fatalf("resume: terminal=%v n=%d", terminal, len(resumed))
	}
	for i, ev := range resumed {
		orig := all[i+2]
		if ev.Seq != orig.Seq || ev.Type != orig.Type || string(ev.Data) != string(orig.Data) {
			t.Errorf("resumed event %d = %+v, want %+v", i, ev, orig)
		}
	}
}

// TestEventsNotify checks the notification channel closes on publish so a
// subscriber blocked on it wakes for the new event.
func TestEventsNotify(t *testing.T) {
	m := New(Config{Acquire: oneSlot()})
	defer shutdownNow(t, m)
	release := make(chan struct{})
	j, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		<-release
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	evs, notify, terminal := j.EventsSince(0)
	if terminal || len(evs) != 2 {
		t.Fatalf("initial read: terminal=%v n=%d", terminal, len(evs))
	}
	close(release)
	select {
	case <-notify:
	case <-time.After(5 * time.Second):
		t.Fatal("no notification for terminal event")
	}
	more, _, terminal := j.EventsSince(evs[len(evs)-1].Seq)
	if !terminal || len(more) != 1 {
		t.Fatalf("after notify: terminal=%v n=%d", terminal, len(more))
	}
}

// TestReleaseSlotAdmitsNext checks that a running job that gives its slot
// back lets the next queued job start while it still runs, and that the
// slot is not released twice when the first job ends.
func TestReleaseSlotAdmitsNext(t *testing.T) {
	m := New(Config{Acquire: oneSlot()})
	defer shutdownNow(t, m)
	gate := make(chan struct{})
	first, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		j.ReleaseSlot()
		j.ReleaseSlot()
		<-gate
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, second, StateSucceeded)
	if st := first.State(); st != StateRunning {
		t.Fatalf("first job = %s, want still running", st)
	}
	close(gate)
	waitState(t, first, StateSucceeded)
	// One slot, held by nobody: a third job runs.
	third, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, third, StateSucceeded)
}

// TestHoldSlotTakesSlotAgain checks that a job that gave its slot back waits
// in HoldSlot until a slot is free, that a second HoldSlot is a no-op, and
// that the manager releases the retaken slot when the job ends.
func TestHoldSlotTakesSlotAgain(t *testing.T) {
	m := New(Config{Acquire: oneSlot()})
	defer shutdownNow(t, m)
	secondRunning, gate := make(chan struct{}), make(chan struct{})
	held := make(chan error, 1)
	first, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		j.ReleaseSlot()
		<-secondRunning
		held <- j.HoldSlot(ctx)
		return nil, j.HoldSlot(ctx)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) {
		close(secondRunning)
		<-gate
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-held:
		t.Fatalf("HoldSlot returned (%v) while another job held the only slot", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-held; err != nil {
		t.Fatalf("HoldSlot: %v", err)
	}
	waitState(t, first, StateSucceeded)
	third, err := m.Submit(Spec{Run: func(ctx context.Context, j *Job) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, third, StateSucceeded)
}
