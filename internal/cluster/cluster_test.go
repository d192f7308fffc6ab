package cluster

import (
	"context"
	"encoding/base64"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestNormalizePeer(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"localhost:8080", "http://localhost:8080", true},
		{"http://localhost:8080", "http://localhost:8080", true},
		{"https://node.example:443", "https://node.example:443", true},
		{" 10.0.0.1:9000 ", "http://10.0.0.1:9000", true},
		{"http://localhost:8080/", "http://localhost:8080", true},
		{"", "", false},
		{"ftp://x:21", "", false},
		{"http://", "", false},
		{"http://host:8080/path", "", false},
		{"http://host:8080?q=1", "", false},
	}
	for _, c := range cases {
		got, err := normalizePeer(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("normalizePeer(%q) = (%q, %v), want (%q, nil)", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("normalizePeer(%q) = %q, want error", c.in, got)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Self: "a:1", Peers: nil}); err == nil {
		t.Error("New with no peers: want error")
	}
	if _, err := New(Config{Self: "c:3", Peers: []string{"a:1", "b:2"}}); err == nil {
		t.Error("New with self missing from peers: want error")
	}
	if _, err := New(Config{Self: "a:1", Peers: []string{"a:1", "http://a:1"}}); err == nil {
		t.Error("New with duplicate peers (after normalization): want error")
	}
	c, err := New(Config{Self: "b:2", Peers: []string{"b:2", "a:1"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if got := c.Self(); got != "http://b:2" {
		t.Errorf("Self() = %q, want %q", got, "http://b:2")
	}
	if c.Size() != 2 {
		t.Errorf("Size() = %d, want 2", c.Size())
	}
}

// TestRouteAgreement: every node, given the same peer list in any order,
// routes every fingerprint to the same owner.
func TestRouteAgreement(t *testing.T) {
	peers := []string{"n1:1", "n2:2", "n3:3"}
	shuffled := []string{"n3:3", "n1:1", "n2:2"}
	a, err := New(Config{Self: "n1:1", Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Self: "n2:2", Peers: shuffled})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for fp := uint64(0); fp < 2000; fp++ {
		pa, la := a.Route(fp * 0x9e3779b97f4a7c15)
		pb, lb := b.Route(fp * 0x9e3779b97f4a7c15)
		ownerA, ownerB := pa, pb
		if la {
			ownerA = a.Self()
		}
		if lb {
			ownerB = b.Self()
		}
		if ownerA != ownerB {
			t.Fatalf("fp %d: node a routes to %s, node b to %s", fp, ownerA, ownerB)
		}
	}
}

func TestReportFailureFailsOverToSurvivors(t *testing.T) {
	peers := []string{"n1:1", "n2:2", "n3:3"}
	c, err := New(Config{Self: "n1:1", Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Find a fingerprint owned by n2.
	var fp uint64
	for fp = 1; ; fp++ {
		if peer, local := c.Route(fp); !local && peer == "http://n2:2" {
			break
		}
	}
	c.ReportFailure("http://n2:2")
	if peer, local := c.Route(fp); !local && peer == "http://n2:2" {
		t.Fatal("fingerprint still routed to a dead peer")
	}
	st := c.Status()
	if st.Alive != 2 {
		t.Errorf("Alive = %d after one failure, want 2", st.Alive)
	}
	// Unknown peers are ignored.
	c.ReportFailure("http://nope:9")
	if c.Status().Alive != 2 {
		t.Error("ReportFailure of unknown peer changed membership")
	}

	// With every remote peer dead, everything routes locally.
	c.ReportFailure("http://n3:3")
	for probe := uint64(0); probe < 500; probe++ {
		if _, local := c.Route(probe); !local {
			t.Fatal("routing to a dead peer with all remotes down")
		}
	}
}

func TestSweepMarksDeadAndRevives(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("health probe hit %s, want /healthz", r.URL.Path)
		}
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable) // draining
		}
	}))
	defer peer.Close()

	c, err := New(Config{
		Self:          "self:1",
		Peers:         []string{"self:1", peer.URL},
		HealthTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Sweep(context.Background())
	if got := c.Status().Alive; got != 2 {
		t.Fatalf("Alive after healthy sweep = %d, want 2", got)
	}
	healthy.Store(false) // 503s must drop the peer (draining ≠ alive)
	c.Sweep(context.Background())
	if got := c.Status().Alive; got != 1 {
		t.Fatalf("Alive after unhealthy sweep = %d, want 1", got)
	}
	healthy.Store(true)
	c.Sweep(context.Background())
	if got := c.Status().Alive; got != 2 {
		t.Fatalf("Alive after revival sweep = %d, want 2", got)
	}
}

func TestForwardSolve(t *testing.T) {
	const frame = "PSV1-fake-request"
	const reply = "PRS1-fake-response"
	const spanTree = `{"name":"solve bandwidth"}`
	const traceHdr = "0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	var sawInternal, sawRequestID, sawTrace atomic.Bool
	var cacheHeader atomic.Value
	cacheHeader.Store("HIT")
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/solve" || r.Method != http.MethodPost {
			t.Errorf("forward hit %s %s, want POST /v1/solve", r.Method, r.URL.Path)
		}
		sawInternal.Store(r.Header.Get(InternalHeader) != "")
		sawRequestID.Store(r.Header.Get("X-Request-Id") == "req-123")
		sawTrace.Store(r.Header.Get(TraceHeader) == traceHdr)
		w.Header().Set("X-Cache", cacheHeader.Load().(string))
		w.Header().Set("Trailer", SpansTrailer)
		w.Write([]byte(reply))
		w.Header().Set(SpansTrailer, base64.StdEncoding.EncodeToString([]byte(spanTree)))
	}))
	defer peer.Close()

	c, err := New(Config{Self: "self:1", Peers: []string{"self:1", peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	body, spans, err := c.ForwardSolve(context.Background(), peer.URL, []byte(frame), "req-123", traceHdr)
	if err != nil {
		t.Fatalf("ForwardSolve: %v", err)
	}
	if string(body) != reply {
		t.Errorf("body = %q, want %q", body, reply)
	}
	if !sawInternal.Load() {
		t.Error("forward did not carry the internal hop-guard header")
	}
	if !sawRequestID.Load() {
		t.Error("forward did not carry the request ID")
	}
	if !sawTrace.Load() {
		t.Error("forward did not carry the trace header")
	}
	if want := base64.StdEncoding.EncodeToString([]byte(spanTree)); spans != want {
		t.Errorf("trailer spans = %q, want %q", spans, want)
	}
	st := c.Status()
	if st.Forwards.Hit != 1 || st.Forwards.Miss != 0 || st.Forwards.Errors != 0 {
		t.Errorf("forward stats = %+v, want exactly one hit", st.Forwards)
	}
	cacheHeader.Store("MISS")
	if _, _, err := c.ForwardSolve(context.Background(), peer.URL, []byte(frame), "", ""); err != nil {
		t.Fatalf("ForwardSolve: %v", err)
	}
	st = c.Status()
	if st.Forwards.Hit != 1 || st.Forwards.Miss != 1 || st.Forwards.Errors != 0 {
		t.Errorf("forward stats = %+v, want one hit and one miss", st.Forwards)
	}
}

func TestForwardSolveStatusErrorKeepsPeerAlive(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "admission queue full", http.StatusTooManyRequests)
	}))
	defer peer.Close()

	c, err := New(Config{Self: "self:1", Peers: []string{"self:1", peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, _, err = c.ForwardSolve(context.Background(), peer.URL, []byte("x"), "", "")
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StatusError", err)
	}
	if se.Code != http.StatusTooManyRequests || !strings.Contains(se.Body, "admission queue full") {
		t.Errorf("StatusError = %+v", se)
	}
	st := c.Status()
	if st.Alive != 2 {
		t.Errorf("peer marked dead on an HTTP-level rejection; Alive = %d, want 2", st.Alive)
	}
	if st.Forwards.Errors != 1 {
		t.Errorf("Forwards.Errors = %d, want 1", st.Forwards.Errors)
	}
}

func TestForwardSolveTransportErrorMarksPeerDead(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	peer.Close() // connection refused from here on

	c, err := New(Config{Self: "self:1", Peers: []string{"self:1", peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.ForwardSolve(context.Background(), peer.URL, []byte("x"), "", ""); err == nil {
		t.Fatal("ForwardSolve to a closed peer: want error")
	}
	st := c.Status()
	if st.Alive != 1 {
		t.Errorf("Alive = %d after transport failure, want 1 (peer dead)", st.Alive)
	}
	if st.Forwards.Errors != 1 {
		t.Errorf("Forwards.Errors = %d, want 1", st.Forwards.Errors)
	}
}

func TestForwardSolveCallerCancelDoesNotMarkDead(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Outlast the caller's 50ms deadline, then answer normally so the
		// test server can close. (Blocking on r.Context() would hang: the
		// server doesn't watch the connection while the body is unread.)
		io.Copy(io.Discard, r.Body)
		time.Sleep(300 * time.Millisecond)
	}))
	defer peer.Close()

	c, err := New(Config{Self: "self:1", Peers: []string{"self:1", peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := c.ForwardSolve(ctx, peer.URL, []byte("x"), "", ""); err == nil {
		t.Fatal("want error on canceled forward")
	}
	if got := c.Status().Alive; got != 2 {
		t.Errorf("Alive = %d, want 2 (caller timeout says nothing about the peer)", got)
	}
}

func TestStartStopsOnClose(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer peer.Close()
	c, err := New(Config{
		Self:           "self:1",
		Peers:          []string{"self:1", peer.URL},
		HealthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Start() // idempotent
	time.Sleep(30 * time.Millisecond)
	c.Close()
	c.Close() // idempotent
}
