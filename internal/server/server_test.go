package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/workload"
)

// quietLogger keeps request logs out of test output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s := New(cfg)
	// New starts the job dispatcher; stop it when the test ends so
	// goroutine-leak checks elsewhere see a quiet baseline.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.jobs.Shutdown(ctx)
	})
	return s
}

// solveCount is how many engine solves s has run: the summed count of its
// solve-duration histograms, which observe one engine.Event per solve.
func solveCount(s *Server) uint64 {
	s.solvem.mu.Lock()
	defer s.solvem.mu.Unlock()
	var n uint64
	for _, ser := range s.solvem.series {
		n += ser.hist.Count()
	}
	return n
}

// pathGraphJSON renders a random n-node path in the graph-JSON envelope,
// through the graph package's own writer to stay honest about the wire
// format.
func pathGraphJSON(t *testing.T, n int, seed uint64) json.RawMessage {
	t.Helper()
	r := workload.NewRNG(seed)
	p := workload.RandomPath(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	var buf bytes.Buffer
	if err := graph.WriteJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	return json.RawMessage(buf.Bytes())
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	return doJSONRaw(h, method, path, body)
}

// doJSONRaw is doJSON without the testing.T, safe inside goroutines (a
// marshal failure of a test-authored struct can only be a test bug).
func doJSONRaw(h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			panic(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// The gate solver blocks until released, letting tests hold solves in
// flight deterministically. One gate is active at a time (tests in this
// package don't run in parallel).
var (
	gateMu       sync.Mutex
	gateStarted  chan struct{}
	gateRelease  chan struct{}
	gateCanceled chan struct{}
)

// armGate resets the gate channels and registers the solver until t ends.
func armGate(t *testing.T) (started <-chan struct{}, release func()) {
	t.Helper()
	engine.RegisterForTest(t, gateSolver{})
	gateMu.Lock()
	defer gateMu.Unlock()
	gateStarted = make(chan struct{}, 64)
	gateRelease = make(chan struct{})
	gateCanceled = make(chan struct{}, 64)
	rel := gateRelease
	var once sync.Once
	return gateStarted, func() { once.Do(func() { close(rel) }) }
}

// gateCancels signals once for every gate solve that ended because its
// context did.
func gateCancels() <-chan struct{} {
	gateMu.Lock()
	defer gateMu.Unlock()
	return gateCanceled
}

type gateSolver struct{}

func (gateSolver) Name() string                { return "test-gate" }
func (gateSolver) Kind() engine.Kind           { return engine.KindPath }
func (gateSolver) Objective() engine.Objective { return engine.ObjectiveUnknown }
func (gateSolver) Solve(ctx context.Context, req engine.Request) (engine.Result, error) {
	gateMu.Lock()
	st, rel, canceled := gateStarted, gateRelease, gateCanceled
	gateMu.Unlock()
	if req.Options.Timeout > 0 { // as the registered solvers do
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Options.Timeout)
		defer cancel()
	}
	st <- struct{}{}
	select {
	case <-rel:
		return engine.Result{Solver: "test-gate", K: req.K, ComponentWeights: []float64{req.K}}, nil
	case <-ctx.Done():
		canceled <- struct{}{}
		return engine.Result{}, ctx.Err()
	}
}

func TestSolveEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	g := pathGraphJSON(t, 100, 1)
	rec := doJSON(t, s.Handler(), "POST", "/v1/solve", solveRequest{Solver: "bandwidth", K: 500, Graph: g})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "MISS" {
		t.Errorf("X-Cache = %q, want MISS", got)
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if resp.Solver != "bandwidth" || resp.K != 500 {
		t.Errorf("resp = %+v", resp)
	}
	if resp.NumComponents != len(resp.ComponentWeights) || resp.NumComponents == 0 {
		t.Errorf("components inconsistent: %d vs %v", resp.NumComponents, resp.ComponentWeights)
	}
	if len(resp.Fingerprint) != 16 {
		t.Errorf("fingerprint = %q, want 16 hex chars", resp.Fingerprint)
	}
	if resp.Stats.Iterations <= 0 {
		t.Errorf("iterations = %d, want > 0", resp.Stats.Iterations)
	}
}

// TestSolveCacheHitByteIdentical is the tentpole acceptance check: the
// second identical request is answered from the cache byte-for-byte without
// invoking the engine again, asserted through the solve histogram's count.
func TestSolveCacheHitByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{})
	g := pathGraphJSON(t, 2000, 2)
	req := solveRequest{Solver: "bandwidth", K: 700, Graph: g}

	first := doJSON(t, s.Handler(), "POST", "/v1/solve", req)
	if first.Code != http.StatusOK {
		t.Fatalf("first solve: %d %s", first.Code, first.Body.String())
	}
	second := doJSON(t, s.Handler(), "POST", "/v1/solve", req)
	if second.Code != http.StatusOK {
		t.Fatalf("second solve: %d %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("second X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("cache hit body differs from original:\n%s\nvs\n%s", first.Body, second.Body)
	}
	if n := solveCount(s); n != 1 {
		t.Errorf("engine invoked %d times, want exactly 1", n)
	}
	if hits, misses := s.clusterm.localHits.Load(), s.clusterm.localMisses.Load(); hits != 1 || misses != 1 {
		t.Errorf("cache lookups = %d hits / %d misses, want 1 / 1", hits, misses)
	}
	// A different K is a different key: must re-solve.
	third := doJSON(t, s.Handler(), "POST", "/v1/solve", solveRequest{Solver: "bandwidth", K: 800, Graph: g})
	if third.Code != http.StatusOK || third.Header().Get("X-Cache") != "MISS" {
		t.Errorf("different-K request: %d, X-Cache = %q, want 200 MISS", third.Code, third.Header().Get("X-Cache"))
	}
	if n := solveCount(s); n != 2 {
		t.Errorf("engine invoked %d times after K change, want 2", n)
	}
	// noCache bypasses both lookup and fill.
	bypass := doJSON(t, s.Handler(), "POST", "/v1/solve", solveRequest{Solver: "bandwidth", K: 700, Graph: g, NoCache: true})
	if bypass.Code != http.StatusOK || bypass.Header().Get("X-Cache") != "MISS" {
		t.Errorf("noCache request: %d, X-Cache = %q, want 200 MISS", bypass.Code, bypass.Header().Get("X-Cache"))
	}
	if n := solveCount(s); n != 3 {
		t.Errorf("engine invoked %d times after noCache, want 3", n)
	}
}

func TestSolveValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	g := pathGraphJSON(t, 10, 3)
	valid := `{"solver":"bandwidth","k":500,"graph":` + string(g) + `}`
	cases := []struct {
		name  string
		route string // default /v1/solve
		req   any    // the body, marshalled unless it is a string
		want  int
		// wantErr is a substring of the error message, when set.
		wantErr string
	}{
		{name: "missing solver", req: solveRequest{K: 10, Graph: g}, want: http.StatusBadRequest},
		{name: "zero K", req: solveRequest{Solver: "bandwidth", K: 0, Graph: g}, want: http.StatusBadRequest},
		{name: "negative K", req: solveRequest{Solver: "bandwidth", K: -5, Graph: g}, want: http.StatusBadRequest},
		{name: "missing graph", req: `{"solver":"bandwidth","k":10}`, want: http.StatusBadRequest, wantErr: `"graph" is required`},
		{name: "null graph", req: solveRequest{Solver: "bandwidth", K: 10}, want: http.StatusBadRequest, wantErr: `"graph" is required`},
		{name: "bad graph json", req: solveRequest{Solver: "bandwidth", K: 10, Graph: json.RawMessage(`{"kind":"path","nodeWeights":[1,2],"edgeWeights":[]}`)}, want: http.StatusBadRequest},
		{name: "unknown solver", req: solveRequest{Solver: "nope", K: 10, Graph: g}, want: http.StatusBadRequest},
		{name: "negative maxComponents", req: solveRequest{Solver: "bandwidth", K: 10, MaxComponents: -1, Graph: g}, want: http.StatusBadRequest},
		{name: "negative timeout", req: solveRequest{Solver: "bandwidth", K: 10, TimeoutMs: -1, Graph: g}, want: http.StatusBadRequest},
		{name: "infeasible K", req: solveRequest{Solver: "bandwidth", K: 0.5, Graph: g}, want: http.StatusUnprocessableEntity},
		{name: "fractional maxComponents", req: `{"solver":"bandwidth","k":10,"maxComponents":1.0,"graph":` + string(g) + `}`, want: http.StatusBadRequest},
		{name: "trailing whitespace", req: valid + " \n", want: http.StatusOK},
		{name: "trailing bytes solve", req: valid + "garbage", want: http.StatusBadRequest, wantErr: "after top-level value"},
		{name: "trailing bytes job", route: "/v1/jobs", req: valid + "{}", want: http.StatusBadRequest, wantErr: "after top-level value"},
		{name: "trailing bytes batch", route: "/v1/batch", req: `{"requests":[` + valid + `]}]`, want: http.StatusBadRequest, wantErr: "after top-level value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			route := tc.route
			if route == "" {
				route = "/v1/solve"
			}
			var rec *httptest.ResponseRecorder
			if raw, ok := tc.req.(string); ok {
				rec = httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", route, strings.NewReader(raw)))
			} else {
				rec = doJSON(t, s.Handler(), "POST", route, tc.req)
			}
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d (body %s)", rec.Code, tc.want, rec.Body.String())
			}
			if tc.want == http.StatusOK {
				return
			}
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Errorf("error body missing: %s", rec.Body.String())
			}
			if !strings.Contains(er.Error, tc.wantErr) {
				t.Errorf("error = %q, want it to mention %q", er.Error, tc.wantErr)
			}
		})
	}
	// Malformed JSON body.
	req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader("{nope"))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", rec.Code)
	}
	// Wrong method routes to 405 via the method-qualified mux patterns.
	rec = doJSON(t, s.Handler(), "GET", "/v1/solve", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve = %d, want 405", rec.Code)
	}
}

// TestLimiterSheds429 saturates one solve slot and a zero-length queue and
// checks the overflow request is shed with 429 + Retry-After while the
// admitted solve completes fine.
func TestLimiterSheds429(t *testing.T) {
	started, release := armGate(t)
	defer release()
	s := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxQueue:      -1, // zero queue: overflow sheds immediately
		RetryAfter:    3 * time.Second,
		CacheSize:     -1, // cache off so every request reaches admission
	})
	g := pathGraphJSON(t, 4, 4)

	inFlight := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		inFlight <- doJSONRaw(s.Handler(), "POST", "/v1/solve", solveRequest{Solver: "test-gate", K: 42, Graph: g})
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("gated solve never started")
	}

	shed := doJSON(t, s.Handler(), "POST", "/v1/solve", solveRequest{Solver: "test-gate", K: 43, Graph: g})
	if shed.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429 (body %s)", shed.Code, shed.Body.String())
	}
	if got := shed.Header().Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}

	release()
	first := <-inFlight
	if first.Code != http.StatusOK {
		t.Fatalf("admitted solve status = %d (body %s)", first.Code, first.Body.String())
	}
	if st := s.limiter.Stats(); st.ShedQueueFull != 1 || st.Admitted != 1 {
		t.Errorf("limiter stats = %+v, want 1 shed / 1 admitted", st)
	}
}

// TestQueueTimeout503: a request that waits longer than QueueTimeout for a
// slot is shed with 503.
func TestQueueTimeout503(t *testing.T) {
	started, release := armGate(t)
	defer release()
	s := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxQueue:      8,
		QueueTimeout:  30 * time.Millisecond,
		CacheSize:     -1,
	})
	g := pathGraphJSON(t, 4, 5)
	go doJSONRaw(s.Handler(), "POST", "/v1/solve", solveRequest{Solver: "test-gate", K: 42, Graph: g})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("gated solve never started")
	}
	queued := doJSON(t, s.Handler(), "POST", "/v1/solve", solveRequest{Solver: "test-gate", K: 43, Graph: g})
	if queued.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued status = %d, want 503 (body %s)", queued.Code, queued.Body.String())
	}
	if st := s.limiter.Stats(); st.ShedDeadline != 1 {
		t.Errorf("shedDeadline = %d, want 1", st.ShedDeadline)
	}
}

// TestGracefulShutdownDrains starts a real listener, holds a solve in
// flight, initiates Shutdown, and checks the in-flight request completes
// with 200 while post-drain requests are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	started, release := armGate(t)
	defer release()
	s := newTestServer(t, Config{CacheSize: -1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	g := pathGraphJSON(t, 4, 6)
	body, err := json.Marshal(solveRequest{Solver: "test-gate", K: 42, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		code int
		body []byte
		err  error
	}
	inFlight := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			inFlight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inFlight <- result{code: resp.StatusCode, body: b}
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight solve never started")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Shutdown must wait for the gated solve: it cannot have finished yet.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a solve was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	// While draining, new work is refused at the handler with 503.
	rec := doJSON(t, s.Handler(), "POST", "/v1/solve", solveRequest{Solver: "bandwidth", K: 10, Graph: g})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("solve while draining = %d, want 503", rec.Code)
	}
	health := doJSON(t, s.Handler(), "GET", "/healthz", nil)
	if health.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", health.Code)
	}

	release()
	got := <-inFlight
	if got.err != nil {
		t.Fatalf("in-flight request failed: %v", got.err)
	}
	if got.code != http.StatusOK {
		t.Fatalf("in-flight request status = %d (body %s)", got.code, got.body)
	}
	var resp SolveResponse
	if err := json.Unmarshal(got.body, &resp); err != nil || resp.Solver != "test-gate" {
		t.Errorf("in-flight response corrupted by drain: %s", got.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	// The listener is closed: connections are refused outright.
	if _, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body)); err == nil {
		t.Error("post-shutdown request unexpectedly succeeded")
	}
}

func TestBatchEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	g := pathGraphJSON(t, 500, 7)
	warm := doJSON(t, s.Handler(), "POST", "/v1/solve", solveRequest{Solver: "bandwidth", K: 900, Graph: g})
	if warm.Code != http.StatusOK {
		t.Fatalf("warm solve: %d", warm.Code)
	}
	rec := doJSON(t, s.Handler(), "POST", "/v1/batch", batchRequest{Requests: []solveRequest{
		{Solver: "bandwidth", K: 900, Graph: g},  // cache hit
		{Solver: "bandwidth", K: 1100, Graph: g}, // fresh solve
		{Solver: "bandwidth", K: 0.25, Graph: g}, // infeasible: per-item error
		{Solver: "nope", K: 900, Graph: g},       // unknown solver: per-item error
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d (body %s)", rec.Code, rec.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Requests != 4 || resp.Stats.Solved != 2 || resp.Stats.Failed != 2 || resp.Stats.CacheHits != 1 {
		t.Fatalf("batch stats = %+v", resp.Stats)
	}
	if !resp.Items[0].Cached || resp.Items[0].Error != "" {
		t.Errorf("item 0 = %+v, want cached result", resp.Items[0])
	}
	if !bytes.Equal(resp.Items[0].Result, bytes.TrimSuffix(warm.Body.Bytes(), []byte("\n"))) {
		t.Errorf("cached batch item differs from the /v1/solve bytes")
	}
	if resp.Items[1].Cached || len(resp.Items[1].Result) == 0 {
		t.Errorf("item 1 = %+v, want fresh result", resp.Items[1])
	}
	for i := 2; i <= 3; i++ {
		if resp.Items[i].Error == "" {
			t.Errorf("item %d should carry an error", i)
		}
	}
	// The fresh batch solve must have filled the cache.
	again := doJSON(t, s.Handler(), "POST", "/v1/solve", solveRequest{Solver: "bandwidth", K: 1100, Graph: g})
	if again.Header().Get("X-Cache") != "HIT" {
		t.Errorf("solve after batch fill: X-Cache = %q, want HIT", again.Header().Get("X-Cache"))
	}
	// Batch-level validation.
	if rec := doJSON(t, s.Handler(), "POST", "/v1/batch", batchRequest{}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", rec.Code)
	}
}

func TestSolversHealthzMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := doJSON(t, s.Handler(), "GET", "/v1/solvers", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("solvers status = %d", rec.Code)
	}
	var sresp solversResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sresp); err != nil {
		t.Fatal(err)
	}
	found := map[string]string{}
	objectives := map[string]string{}
	for _, si := range sresp.Solvers {
		found[si.Name] = si.Kind
		objectives[si.Name] = si.Objective
	}
	if found["bandwidth"] != "path" || found["partition-tree"] != "tree" {
		t.Errorf("solver listing incomplete: %v", found)
	}
	if found["treecut-exact"] != "tree" {
		t.Errorf("treecut solvers missing from listing: %v", found)
	}
	if objectives["bandwidth"] != "bandwidth" || objectives["minproc"] != "minprocs" ||
		objectives["partition-tree"] != "bottleneck" {
		t.Errorf("solver objectives wrong: %v", objectives)
	}
	// The envelope publishes the server's limits.
	lim := sresp.Limits
	if lim.MaxNodes != 4<<20 || lim.MaxBodyBytes != 32<<20 || lim.JobQueue != 64 ||
		lim.MaxTimeoutMs != 60_000 || lim.MaxJobTimeoutMs != 900_000 {
		t.Errorf("limits = %+v", lim)
	}

	health := doJSON(t, s.Handler(), "GET", "/healthz", nil)
	if health.Code != http.StatusOK || !strings.Contains(health.Body.String(), `"status":"ok"`) {
		t.Errorf("healthz = %d %s", health.Code, health.Body.String())
	}

	// Drive one solve + one hit, then check the exposition has the series.
	g := pathGraphJSON(t, 200, 8)
	for i := 0; i < 2; i++ {
		if rec := doJSON(t, s.Handler(), "POST", "/v1/solve", solveRequest{Solver: "bandwidth", K: 600, Graph: g}); rec.Code != http.StatusOK {
			t.Fatalf("solve %d: %d", i, rec.Code)
		}
	}
	met := doJSON(t, s.Handler(), "GET", "/metrics", nil)
	if met.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", met.Code)
	}
	text := met.Body.String()
	for _, want := range []string{
		`partitiond_solve_duration_seconds_count{solver="bandwidth"} 1`,
		`partitiond_cache_requests_total{tier="local",result="hit"} 1`,
		`partitiond_cache_requests_total{tier="local",result="miss"} 1`,
		`partitiond_admission_admitted_total 1`,
		`partitiond_http_requests_total{route="/v1/solve",code="200"} 2`,
		"# TYPE partitiond_solver_latency_seconds_max gauge",
		"partitiond_http_in_flight 1", // the /metrics request itself
		`partitiond_jobs_total{state="succeeded"} 0`,
		"partitiond_jobs_queue_capacity 64",
		`partitiond_jobs_total{state="running"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestMetricsOneSeriesPerFact: every fact on /metrics has exactly one
// family. Solve counts and total solve time are the histogram's _count and
// _sum, cache lookups are partitiond_cache_requests_total, and job occupancy
// is partitiond_jobs_total; the families that repeated them are gone.
func TestMetricsOneSeriesPerFact(t *testing.T) {
	s := newTestServer(t, Config{})
	req := solveRequest{Solver: "bandwidth", K: 600, Graph: pathGraphJSON(t, 200, 8)}
	for _, want := range []string{"MISS", "HIT"} {
		rec := doJSON(t, s.Handler(), "POST", "/v1/solve", req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want {
			t.Fatalf("solve: %d, X-Cache = %q, want 200 %s", rec.Code, rec.Header().Get("X-Cache"), want)
		}
	}
	text := doJSON(t, s.Handler(), "GET", "/metrics", nil).Body.String()

	seen := make(map[string]bool)
	byPrefix := make(map[string][]string)
	prefixes := []string{"partitiond_solver_", "partitiond_cache_", "partitiond_jobs_"}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		family := strings.Fields(line)[2]
		if seen[family] {
			t.Errorf("family %s declared twice", family)
		}
		seen[family] = true
		for _, p := range prefixes {
			if rest, ok := strings.CutPrefix(family, p); ok {
				byPrefix[p] = append(byPrefix[p], rest)
			}
		}
	}
	// The solver, cache and jobs families are exactly these. Solve counts
	// and total solve time are absent here because the histogram carries
	// them; so are tier-less cache hit/miss counters and jobs gauges that
	// repeated jobs_total{state="queued"|"running"}.
	for p, want := range map[string][]string{
		"partitiond_solver_": {"errors_total", "in_flight", "iterations_total", "latency_seconds_max"},
		"partitiond_cache_":  {"capacity", "entries", "evictions_total", "requests_total"},
		"partitiond_jobs_":   {"queue_capacity", "retained", "submitted_total", "total"},
	} {
		got := byPrefix[p]
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s* families = %v, want %v", p, got, want)
		}
	}
	for _, want := range []string{
		`partitiond_solve_duration_seconds_count{solver="bandwidth"} 1`,
		`partitiond_cache_requests_total{tier="local",result="hit"} 1`,
		`partitiond_solver_iterations_total{solver="bandwidth"} `,
		`partitiond_solver_errors_total{solver="bandwidth"} 0`,
		`partitiond_solver_latency_seconds_max{solver="bandwidth"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCacheHitSpeedup is the acceptance benchmark in test form: a repeated
// request must be at least 10x faster from the cache than solving. The
// uncached side uses bandwidth-naive on a wide window, so the solve
// dominates JSON decoding by a large margin on any host.
func TestCacheHitSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s := newTestServer(t, Config{})
	r := workload.NewRNG(9)
	// 10k nodes at K = W/2: the quadratic solve grows 4x per doubling while
	// the decode on the cached path grows linearly, so the >=10x bar holds
	// with and without the race detector's (solve-heavy) slowdown.
	p := workload.RandomPath(r, 10000, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	var buf bytes.Buffer
	if err := graph.WriteJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	req := solveRequest{Solver: "bandwidth-naive", K: p.TotalNodeWeight() / 2, Graph: buf.Bytes()}

	// Pre-marshal both request bodies so the timed region is purely the
	// server: decode, fingerprint, (cache | admission + solve), respond.
	marshal := func(noCache bool) []byte {
		rq := req
		rq.NoCache = noCache
		b, err := json.Marshal(rq)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bodies := map[bool][]byte{true: marshal(true), false: marshal(false)}
	best := func(noCache bool, rounds int) time.Duration {
		min := time.Duration(1<<63 - 1)
		for i := 0; i < rounds; i++ {
			hr := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(bodies[noCache]))
			rec := httptest.NewRecorder()
			start := time.Now()
			s.Handler().ServeHTTP(rec, hr)
			d := time.Since(start)
			if rec.Code != http.StatusOK {
				t.Fatalf("solve: %d %s", rec.Code, rec.Body.String())
			}
			if d < min {
				min = d
			}
		}
		return min
	}
	uncached := best(true, 3)
	if rec := doJSON(t, s.Handler(), "POST", "/v1/solve", req); rec.Code != http.StatusOK { // warm the cache
		t.Fatalf("warm: %d", rec.Code)
	}
	cached := best(false, 5)
	if hits := s.clusterm.localHits.Load(); hits < 5 {
		t.Fatalf("cache hits = %d, want >= 5 (timing below would be meaningless)", hits)
	}
	t.Logf("uncached best = %v, cached best = %v (%.0fx)", uncached, cached, float64(uncached)/float64(cached))
	if cached*10 > uncached {
		t.Errorf("cache hit speedup < 10x: uncached %v vs cached %v", uncached, cached)
	}
}

func TestConcurrentSolvesUnderLimit(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 4, MaxQueue: 64})
	g := pathGraphJSON(t, 1000, 10)
	var wg sync.WaitGroup
	var ok, shed atomic.Int64
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := doJSON(t, s.Handler(), "POST", "/v1/solve",
				solveRequest{Solver: "bandwidth", K: 500 + float64(i%4), Graph: g})
			switch rec.Code {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				shed.Add(1)
			default:
				t.Errorf("unexpected status %d: %s", rec.Code, rec.Body.String())
			}
		}(i)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Error("no request succeeded")
	}
	if got := ok.Load() + shed.Load(); got != 32 {
		t.Errorf("accounted responses = %d, want 32", got)
	}
	st := s.limiter.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("limiter not drained after test: %+v", st)
	}
}

// TestSolveVerify drives the verification path end to end: a verified solve
// reports a certificate, the certificate rides the cache byte-identically,
// verified and unverified requests occupy distinct cache entries, and the
// outcomes land in /metrics.
func TestSolveVerify(t *testing.T) {
	s := newTestServer(t, Config{})
	g := pathGraphJSON(t, 60, 17)
	req := solveRequest{Solver: "bandwidth", K: 400, Graph: g, Verify: true}

	rec := doJSON(t, s.Handler(), "POST", "/v1/solve", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Verify == nil {
		t.Fatal("verify requested but response has no certificate")
	}
	if !resp.Verify.Certified || resp.Verify.Criterion != "bandwidth" {
		t.Errorf("certificate = %+v, want certified bandwidth", resp.Verify)
	}
	if resp.Verify.Objective != resp.CutWeight {
		t.Errorf("certificate objective %v != cut weight %v", resp.Verify.Objective, resp.CutWeight)
	}

	// The same request without verify must not hit the verified entry and
	// must omit the certificate.
	plain := doJSON(t, s.Handler(), "POST", "/v1/solve",
		solveRequest{Solver: "bandwidth", K: 400, Graph: g})
	if got := plain.Header().Get("X-Cache"); got != "MISS" {
		t.Errorf("unverified request X-Cache = %q, want MISS (distinct cache key)", got)
	}
	var plainResp SolveResponse
	if err := json.Unmarshal(plain.Body.Bytes(), &plainResp); err != nil {
		t.Fatal(err)
	}
	if plainResp.Verify != nil {
		t.Errorf("unverified response carries a certificate: %+v", plainResp.Verify)
	}

	// A repeated verified request replays the certificate from the cache.
	hit := doJSON(t, s.Handler(), "POST", "/v1/solve", req)
	if got := hit.Header().Get("X-Cache"); got != "HIT" {
		t.Errorf("repeat verified request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(hit.Body.Bytes(), rec.Body.Bytes()) {
		t.Error("cached verified response is not byte-identical")
	}

	// Batch items honor the per-item verify flag too.
	brec := doJSON(t, s.Handler(), "POST", "/v1/batch", batchRequest{Requests: []solveRequest{
		{Solver: "minproc-path", K: 400, Graph: g, Verify: true},
		{Solver: "bandwidth-naive", K: 400, Graph: g},
	}})
	if brec.Code != http.StatusOK {
		t.Fatalf("batch status = %d, body = %s", brec.Code, brec.Body.String())
	}
	var bresp batchResponse
	if err := json.Unmarshal(brec.Body.Bytes(), &bresp); err != nil {
		t.Fatal(err)
	}
	var item0, item1 SolveResponse
	if err := json.Unmarshal(bresp.Items[0].Result, &item0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bresp.Items[1].Result, &item1); err != nil {
		t.Fatal(err)
	}
	if item0.Verify == nil || !item0.Verify.Certified || item0.Verify.Criterion != "minprocs" {
		t.Errorf("batch item 0 certificate = %+v, want certified minprocs", item0.Verify)
	}
	if item1.Verify != nil {
		t.Errorf("batch item 1 carries an unrequested certificate: %+v", item1.Verify)
	}

	// Two certificates were issued (solve + batch item); the cache hit
	// replayed one without re-verifying.
	met := doJSON(t, s.Handler(), "GET", "/metrics", nil)
	text := met.Body.String()
	if !strings.Contains(text, `partitiond_verify_total{result="certified"} 2`) {
		t.Errorf("metrics missing certified=2:\n%s", text)
	}
	if !strings.Contains(text, `partitiond_verify_total{result="uncertified"} 0`) {
		t.Errorf("metrics missing uncertified=0:\n%s", text)
	}
}
