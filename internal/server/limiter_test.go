package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLimiterBasicAcquireRelease(t *testing.T) {
	l := NewLimiter(2, 0)
	r1, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	r2, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("second Acquire: %v", err)
	}
	if st := l.Stats(); st.InFlight != 2 || st.Admitted != 2 {
		t.Errorf("stats = %+v, want 2 in flight / 2 admitted", st)
	}
	// Both slots taken, zero queue: immediate shed.
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third Acquire err = %v, want ErrQueueFull", err)
	}
	r1()
	r3, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire after release: %v", err)
	}
	r2()
	r3()
	st := l.Stats()
	if st.InFlight != 0 || st.ShedQueueFull != 1 || st.Admitted != 3 {
		t.Errorf("final stats = %+v, want 0 in flight / 1 shed / 3 admitted", st)
	}
}

func TestLimiterQueueAdmitsWhenSlotFrees(t *testing.T) {
	l := NewLimiter(1, 1)
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		r, err := l.Acquire(context.Background()) // queues
		if err == nil {
			r()
		}
		got <- err
	}()
	// Wait until the waiter is provably queued, then free the slot.
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued Acquire err = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter never admitted")
	}
}

func TestLimiterQueueFullSheds(t *testing.T) {
	l := NewLimiter(1, 1)
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiting := make(chan struct{})
	go func() {
		close(waiting)
		l.Acquire(ctx) // occupies the single queue slot until cancel
	}()
	<-waiting
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Acquire err = %v, want ErrQueueFull", err)
	}
}

func TestLimiterContextCancelWhileQueued(t *testing.T) {
	l := NewLimiter(1, 4)
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := l.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire err = %v, want DeadlineExceeded", err)
	}
	st := l.Stats()
	if st.ShedDeadline != 1 {
		t.Errorf("shedDeadline = %d, want 1", st.ShedDeadline)
	}
	if st.Queued != 0 {
		t.Errorf("queued = %d after deadline, want 0", st.Queued)
	}
}

// acquireIdleAsync runs AcquireIdle on its own goroutine and delivers the
// outcome; a granted slot is handed back through the release channel.
func acquireIdleAsync(l *Limiter, ctx context.Context) (<-chan func(), <-chan error) {
	granted := make(chan func(), 1)
	failed := make(chan error, 1)
	go func() {
		release, err := l.AcquireIdle(ctx)
		if err != nil {
			failed <- err
			return
		}
		granted <- release
	}()
	return granted, failed
}

// checkIdleShedFree asserts that idle waits left the queue and shed
// counters alone.
func checkIdleShedFree(t *testing.T, l *Limiter) {
	t.Helper()
	if st := l.Stats(); st.Queued != 0 || st.ShedQueueFull != 0 || st.ShedDeadline != 0 {
		t.Errorf("stats = %+v, want no queued requests and no sheds", st)
	}
}

func TestLimiterQueuedAcquireBeforeIdle(t *testing.T) {
	l := NewLimiter(1, 1)
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	idle, _ := acquireIdleAsync(l, context.Background())
	synced := make(chan func(), 1)
	go func() {
		r, err := l.Acquire(context.Background())
		if err == nil {
			synced <- r
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sync waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	var syncRelease func()
	select {
	case syncRelease = <-synced:
	case r := <-idle:
		r()
		t.Fatal("idle waiter took the slot ahead of a queued Acquire")
	case <-time.After(5 * time.Second):
		t.Fatal("queued Acquire never admitted")
	}
	syncRelease()
	select {
	case r := <-idle:
		r()
	case <-time.After(5 * time.Second):
		t.Fatal("idle waiter never admitted after the queue emptied")
	}
	if st := l.Stats(); st.Admitted != 3 || st.InFlight != 0 {
		t.Errorf("stats = %+v, want 3 admitted, none in flight", st)
	}
}

func TestLimiterIdleAdmitsWhenSlotFrees(t *testing.T) {
	l := NewLimiter(1, 4)
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	idle, _ := acquireIdleAsync(l, context.Background())
	release()
	select {
	case r := <-idle:
		r()
	case <-time.After(5 * time.Second):
		t.Fatal("idle waiter never admitted")
	}
	checkIdleShedFree(t, l)
}

// TestLimiterIdleWakesWhenQueuedWaiterLeaves covers a job that stood back
// for a synchronous waiter while a slot was free: a waiter is counted in
// the queue before it reaches the slot channel, so for that moment a free
// slot and a queued request coexist. When that waiter leaves (here on a
// timeout), the idle waiter must look again instead of being stranded
// until some later release.
func TestLimiterIdleWakesWhenQueuedWaiterLeaves(t *testing.T) {
	l := NewLimiter(1, 4)
	l.queued.Add(1) // a waiter counted in the queue, not yet on the channel
	idle, _ := acquireIdleAsync(l, context.Background())
	select {
	case r := <-idle:
		r()
		t.Fatal("idle waiter took a slot while a request was queued")
	case <-time.After(20 * time.Millisecond):
	}
	l.dequeue() // the waiter times out and leaves
	select {
	case r := <-idle:
		r()
	case <-time.After(5 * time.Second):
		t.Fatal("idle waiter stranded after the queued waiter left")
	}
	checkIdleShedFree(t, l)
}

func TestLimiterIdleContextCancel(t *testing.T) {
	l := NewLimiter(1, 4)
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	_, failed := acquireIdleAsync(l, ctx)
	cancel()
	select {
	case err := <-failed:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("AcquireIdle err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AcquireIdle ignored its context")
	}
	checkIdleShedFree(t, l)
	if st := l.Stats(); st.Admitted != 1 {
		t.Errorf("admitted = %d, want 1", st.Admitted)
	}
}

// TestLimiterIdleUnderContention runs synchronous and idle holders against
// each other: slots are never oversubscribed, and every idle waiter
// finishes, so no wakeup is lost between the two classes.
func TestLimiterIdleUnderContention(t *testing.T) {
	const slots, syncers, idlers, rounds = 2, 8, 3, 50
	l := NewLimiter(slots, syncers)
	var held, over atomic.Int64
	hold := func(release func()) {
		if held.Add(1) > slots {
			over.Add(1)
		}
		time.Sleep(10 * time.Microsecond)
		held.Add(-1)
		release()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < syncers+idlers; i++ {
		wg.Add(1)
		go func(idle bool) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				acquire := l.Acquire
				if idle {
					acquire = l.AcquireIdle
				}
				release, err := acquire(ctx)
				if err != nil {
					t.Errorf("idle=%v round %d: %v", idle, r, err)
					return
				}
				hold(release)
			}
		}(i >= syncers)
	}
	wg.Wait()
	if over.Load() != 0 {
		t.Errorf("slots oversubscribed %d times", over.Load())
	}
	if st := l.Stats(); st.InFlight != 0 || st.Queued != 0 || st.Admitted != (syncers+idlers)*rounds {
		t.Errorf("stats = %+v", st)
	}
}
