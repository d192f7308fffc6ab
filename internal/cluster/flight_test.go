package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// launchFlight starts n concurrent DoContext("k", fn) callers where fn blocks
// until release is closed. It returns once every caller goroutine has
// signalled it is about to enter DoContext and the leader is inside fn; the short settle sleep
// then makes "every other caller has joined the leader's flight" reliable
// (the same handshake golang.org/x/sync's singleflight tests use — sharing is
// guaranteed by DoContext's map check once a caller is inside, the sleep only covers
// the last few instructions before it).
func launchFlight[V any](t *testing.T, g *Group[string, V], n int, fn func() (V, error), release chan struct{}) (wait func() []flightResult[V]) {
	t.Helper()
	entered := make(chan struct{})
	var once sync.Once
	wrapped := func(context.Context) (V, error) {
		once.Do(func() { close(entered) })
		<-release
		return fn()
	}
	results := make([]flightResult[V], n)
	var ready, done sync.WaitGroup
	for i := 0; i < n; i++ {
		ready.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			ready.Done()
			v, shared, err := g.DoContext(context.Background(), "k", wrapped, nil)
			results[i] = flightResult[V]{v: v, shared: shared, err: err}
		}(i)
	}
	ready.Wait()
	<-entered
	time.Sleep(100 * time.Millisecond)
	return func() []flightResult[V] {
		done.Wait()
		return results
	}
}

type flightResult[V any] struct {
	v      V
	shared bool
	err    error
}

func TestFlightDedup(t *testing.T) {
	var g Group[string, int]
	var calls atomic.Int32
	release := make(chan struct{})
	const n = 16
	wait := launchFlight(t, &g, n, func() (int, error) {
		calls.Add(1)
		return 42, nil
	}, release)
	close(release)
	results := wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	var leaders int
	for i, r := range results {
		if r.err != nil {
			t.Errorf("caller %d: %v", i, r.err)
		}
		if r.v != 42 {
			t.Errorf("caller %d got %d, want 42", i, r.v)
		}
		if !r.shared {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d callers report shared=false, want exactly 1", leaders)
	}
	leads, shared := g.Stats()
	if leads != 1 || shared != n-1 {
		t.Errorf("Stats() = (%d, %d), want (1, %d)", leads, shared, n-1)
	}
}

func TestFlightErrorShared(t *testing.T) {
	var g Group[string, int]
	boom := errors.New("boom")
	release := make(chan struct{})
	wait := launchFlight(t, &g, 4, func() (int, error) {
		return 0, boom
	}, release)
	close(release)
	for i, r := range wait() {
		if !errors.Is(r.err, boom) {
			t.Errorf("caller %d error = %v, want boom", i, r.err)
		}
	}
}

func TestFlightKeyForgottenAfterCompletion(t *testing.T) {
	var g Group[string, int]
	var calls atomic.Int32
	fn := func(context.Context) (int, error) { calls.Add(1); return int(calls.Load()), nil }
	v1, shared1, _ := g.DoContext(context.Background(), "k", fn, nil)
	v2, shared2, _ := g.DoContext(context.Background(), "k", fn, nil)
	if shared1 || shared2 {
		t.Fatal("sequential calls must not share")
	}
	if v1 != 1 || v2 != 2 {
		t.Fatalf("got %d, %d; want 1, 2 (fn re-executed)", v1, v2)
	}
}

func TestFlightDistinctKeysConcurrent(t *testing.T) {
	var g Group[int, int]
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := g.DoContext(context.Background(), i%5, func(context.Context) (int, error) { return i % 5, nil }, nil)
			if err != nil {
				t.Errorf("key %d: %v", i%5, err)
			}
			if v != i%5 {
				t.Errorf("key %d got value %d", i%5, v)
			}
		}(i)
	}
	wg.Wait()
}

func TestFlightLeaderPanic(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	entered := make(chan struct{})
	joined := make(chan error, 1)

	// The leader runs in its own goroutine so its panic doesn't unwind the
	// test; the joiner enters after the leader is inside fn.
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the leader")
			}
		}()
		g.DoContext(context.Background(), "k", func(context.Context) (int, error) {
			close(entered)
			<-release
			panic("leader exploded")
		}, nil)
	}()
	<-entered
	go func() {
		_, _, err := g.DoContext(context.Background(), "k", func(context.Context) (int, error) { return 7, nil }, nil)
		joined <- err
	}()
	time.Sleep(100 * time.Millisecond)
	close(release)

	err := <-joined
	// The joiner either joined the panicking flight (errFlightPanic) or, in a
	// rare schedule, entered after the key was dropped and led its own clean
	// flight — both are sound outcomes; hanging forever is the failure this
	// test guards against.
	if err != nil && !errors.Is(err, errFlightPanic) {
		t.Fatalf("joiner error = %v, want nil or errFlightPanic", err)
	}
	// The key must be usable again afterwards.
	v, shared, err := g.DoContext(context.Background(), "k", func(context.Context) (int, error) { return 9, nil }, nil)
	if v != 9 || shared || err != nil {
		t.Fatalf("post-panic DoContext = (%d, %v, %v), want (9, false, nil)", v, shared, err)
	}
}

// joinFlight starts a DoContext("k") caller under ctx that joins the flight
// already running, and returns its result channel once it has joined.
func joinFlight(t *testing.T, g *Group[string, int], ctx context.Context) <-chan flightResult[int] {
	t.Helper()
	joined := make(chan struct{})
	out := make(chan flightResult[int], 1)
	go func() {
		v, shared, err := g.DoContext(ctx, "k", func(context.Context) (int, error) {
			t.Error("a joiner led a flight")
			return 0, nil
		}, func() { close(joined) })
		out <- flightResult[int]{v: v, shared: shared, err: err}
	}()
	<-joined
	return out
}

func TestFlightCanceledWhenEveryWaiterLeaves(t *testing.T) {
	var g Group[string, int]
	leaderCtx, leaveLeader := context.WithCancel(context.Background())
	joinerCtx, leaveJoiner := context.WithCancel(context.Background())
	entered := make(chan struct{})
	canceled := make(chan struct{})
	unwind := make(chan struct{})
	led := make(chan error, 1)
	go func() {
		_, _, err := g.DoContext(leaderCtx, "k", func(ctx context.Context) (int, error) {
			close(entered)
			<-ctx.Done()
			close(canceled)
			<-unwind
			return 0, ctx.Err()
		}, nil)
		led <- err
	}()
	<-entered
	joiner := joinFlight(t, &g, joinerCtx)

	leaveLeader()
	select {
	case <-canceled:
		t.Fatal("fn canceled while a joiner still waits")
	case <-time.After(50 * time.Millisecond):
	}
	leaveJoiner()
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("fn never saw ctx.Done() after every waiter left")
	}
	if r := <-joiner; !errors.Is(r.err, context.Canceled) || !r.shared {
		t.Errorf("joiner = %+v, want a shared context.Canceled", r)
	}

	// The canceled flight is forgotten while its fn still unwinds: a later
	// caller leads afresh instead of sharing it.
	v, shared, err := g.DoContext(context.Background(), "k", func(context.Context) (int, error) { return 9, nil }, nil)
	if v != 9 || shared || err != nil {
		t.Fatalf("Do after cancel = (%d, %v, %v), want (9, false, nil)", v, shared, err)
	}
	close(unwind)
	if err := <-led; !errors.Is(err, context.Canceled) {
		t.Errorf("leader error = %v, want context.Canceled", err)
	}
}

func TestFlightOneWaiterLeaves(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	entered := make(chan struct{})
	led := make(chan error, 1)
	go func() {
		_, _, err := g.DoContext(context.Background(), "k", func(ctx context.Context) (int, error) {
			close(entered)
			select {
			case <-release:
				return 42, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}, nil)
		led <- err
	}()
	<-entered
	leaverCtx, leave := context.WithCancel(context.Background())
	leaver := joinFlight(t, &g, leaverCtx)
	stayer := joinFlight(t, &g, context.Background())

	leave()
	if r := <-leaver; !errors.Is(r.err, context.Canceled) {
		t.Errorf("leaving waiter = %+v, want context.Canceled", r)
	}
	close(release)
	if r := <-stayer; r.v != 42 || r.err != nil || !r.shared {
		t.Errorf("remaining waiter = %+v, want a shared 42", r)
	}
	if err := <-led; err != nil {
		t.Errorf("leader error = %v", err)
	}
}

func TestFlightLeaderLeaves(t *testing.T) {
	var g Group[string, int]
	leaderCtx, leaveLeader := context.WithCancel(context.Background())
	release := make(chan struct{})
	entered := make(chan struct{})
	led := make(chan flightResult[int], 1)
	go func() {
		v, shared, err := g.DoContext(leaderCtx, "k", func(ctx context.Context) (int, error) {
			close(entered)
			select {
			case <-release:
				return 42, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}, nil)
		led <- flightResult[int]{v: v, shared: shared, err: err}
	}()
	<-entered
	joiner := joinFlight(t, &g, context.Background())

	leaveLeader()
	close(release)
	if r := <-led; !errors.Is(r.err, context.Canceled) || r.shared {
		t.Errorf("leader = %+v, want its own context.Canceled", r)
	}
	if r := <-joiner; r.v != 42 || r.err != nil || !r.shared {
		t.Errorf("joiner = %+v, want a shared 42", r)
	}
}
