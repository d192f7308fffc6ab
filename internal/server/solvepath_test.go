package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/jobs"
)

// countGateSolver is the gate solver plus accounting: it records the most
// engine solves ever in flight at once, so admission tests can assert the
// MaxConcurrent bound held throughout, and it reports each solve to the
// request's observer like a registry solver.
type countGateSolver struct{}

var (
	countGateRunning atomic.Int64
	countGateMax     atomic.Int64
)

// armCountGate arms the shared gate (see armGate) and resets the counters.
func armCountGate(t *testing.T) (started <-chan struct{}, release func()) {
	t.Helper()
	engine.RegisterForTest(t, countGateSolver{})
	countGateRunning.Store(0)
	countGateMax.Store(0)
	return armGate(t)
}

func (countGateSolver) Name() string                { return "test-count-gate" }
func (countGateSolver) Kind() engine.Kind           { return engine.KindPath }
func (countGateSolver) Objective() engine.Objective { return engine.ObjectiveUnknown }
func (countGateSolver) Solve(ctx context.Context, req engine.Request) (engine.Result, error) {
	n := countGateRunning.Add(1)
	defer countGateRunning.Add(-1)
	for {
		m := countGateMax.Load()
		if n <= m || countGateMax.CompareAndSwap(m, n) {
			break
		}
	}
	res, err := gateSolver{}.Solve(ctx, req)
	res.Solver = "test-count-gate"
	if req.Options.Observer != nil {
		req.Options.Observer.Observe(engine.Event{Solver: res.Solver, Err: err})
	}
	return res, err
}

// TestBatchRespectsMaxConcurrent: batch items are admitted one by one like
// solves, so a batch plus concurrent /v1/solve calls never run more than
// MaxConcurrent engine solves at once.
func TestBatchRespectsMaxConcurrent(t *testing.T) {
	started, release := armCountGate(t)
	defer release()
	s := newTestServer(t, Config{MaxConcurrent: 2, MaxQueue: 16, QueueTimeout: 10 * time.Second, CacheSize: -1})
	h := s.Handler()
	g := pathGraphJSON(t, 8, 21)

	var items []solveRequest
	for k := 1; k <= 4; k++ {
		items = append(items, solveRequest{Solver: "test-count-gate", K: float64(k), Graph: g})
	}
	var wg sync.WaitGroup
	var batch *httptest.ResponseRecorder
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch = doJSONRaw(h, "POST", "/v1/batch", batchRequest{Requests: items})
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("batch items never started")
		}
	}
	solos := make([]*httptest.ResponseRecorder, 2)
	for i := range solos {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			solos[i] = doJSONRaw(h, "POST", "/v1/solve", solveRequest{Solver: "test-count-gate", K: float64(10 + i), Graph: g})
		}(i)
	}
	// Both slots are held by batch items: the solves must queue, not start.
	select {
	case <-started:
		t.Errorf("a third solve started with MaxConcurrent=2 (running %d)", countGateRunning.Load())
	case <-time.After(200 * time.Millisecond):
	}
	release()
	wg.Wait()
	if m := countGateMax.Load(); m > 2 {
		t.Errorf("peak concurrent engine solves = %d, want <= MaxConcurrent (2)", m)
	}
	if batch.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", batch.Code, batch.Body)
	}
	var bresp batchResponse
	if err := json.Unmarshal(batch.Body.Bytes(), &bresp); err != nil {
		t.Fatal(err)
	}
	if bresp.Stats.Solved != 4 {
		t.Errorf("batch stats = %+v, want 4 solved", bresp.Stats)
	}
	for i, rec := range solos {
		if rec.Code != http.StatusOK {
			t.Errorf("solve %d = %d: %s", i, rec.Code, rec.Body)
		}
	}
}

// TestBatchItemsReachFlightRecorder: every batch miss is its own solve
// trace, retained under the batch request ID plus the item index.
func TestBatchItemsReachFlightRecorder(t *testing.T) {
	s := newTestServer(t, Config{TraceSample: 1})
	h := s.Handler()
	g := pathGraphJSON(t, 64, 22)
	rec := doJSONRawHeaders(h, "POST", "/v1/batch", batchRequest{Requests: []solveRequest{
		{Solver: "bandwidth", K: 400, Graph: g},
		{Solver: "bandwidth", K: 500, Graph: g},
	}}, map[string]string{"X-Request-ID": "batch-rid"})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", rec.Code, rec.Body)
	}
	var list traceListResponse
	if err := json.Unmarshal(doJSON(t, h, "GET", "/v1/traces", nil).Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, tr := range list.Traces {
		if tr.Kind == "solve" {
			got[tr.RequestID] = true
		}
	}
	if len(got) != 2 || !got["batch-rid#0"] || !got["batch-rid#1"] {
		t.Errorf("retained solve traces by request ID = %v, want batch-rid#0 and batch-rid#1", got)
	}
}

// TestClusterBatchForwardsAndCoalesces: a batch's items forward to their
// owners and share flights with concurrent identical /v1/solve calls on
// every node, so each distinct item costs one engine solve cluster-wide.
func TestClusterBatchForwardsAndCoalesces(t *testing.T) {
	nodes := newTestCluster(t, 3)
	started, release := armCountGate(t)
	defer release()

	var items []solveRequest
	for owner := range nodes {
		g, _ := graphOwnedBy(t, nodes, owner)
		items = append(items, solveRequest{Solver: "test-count-gate", K: float64(100 + owner), Graph: graphJSONOf(t, g)})
	}
	type answer struct {
		code int
		body []byte
		err  error
	}
	solos := make([]answer, len(items)*len(nodes))
	var batch answer
	var wg sync.WaitGroup
	for i, it := range items {
		for j, n := range nodes {
			wg.Add(1)
			go func(slot int, url string, it solveRequest) {
				defer wg.Done()
				resp, body, err := postJSONSolve(url, it, nil)
				if err == nil {
					solos[slot] = answer{code: resp.StatusCode, body: body}
				} else {
					solos[slot].err = err
				}
			}(i*len(nodes)+j, n.url, it)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		b, _ := json.Marshal(batchRequest{Requests: items})
		resp, err := http.Post(nodes[1].url+"/v1/batch", "application/json", bytes.NewReader(b))
		if err != nil {
			batch.err = err
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		batch = answer{code: resp.StatusCode, body: buf.Bytes()}
	}()
	// One leader per distinct item reaches its owner's solver; give every
	// other caller time to join a flight before the solves finish. Later
	// arrivals hit the owners' caches, so the count holds either way.
	for range items {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("owner solves never started")
		}
	}
	time.Sleep(100 * time.Millisecond)
	release()
	wg.Wait()

	for i, a := range solos {
		if a.err != nil || a.code != http.StatusOK {
			t.Fatalf("solve %d: %v %d %s", i, a.err, a.code, a.body)
		}
	}
	if batch.err != nil || batch.code != http.StatusOK {
		t.Fatalf("batch: %v %d %s", batch.err, batch.code, batch.body)
	}
	var bresp batchResponse
	if err := json.Unmarshal(batch.body, &bresp); err != nil {
		t.Fatal(err)
	}
	for i, it := range bresp.Items {
		if it.Error != "" {
			t.Fatalf("batch item %d: %s", i, it.Error)
		}
		if want := bytes.TrimSuffix(solos[i*len(nodes)].body, []byte("\n")); !bytes.Equal(it.Result, want) {
			t.Errorf("batch item %d differs from the /v1/solve body:\n%s\nvs\n%s", i, it.Result, want)
		}
	}
	for i, n := range nodes {
		if got := n.solves(); got != 1 {
			t.Errorf("node %d performed %d engine solves, want 1 (its own item only)", i, got)
		}
	}
}

// TestJobsShareSolveCache: the synchronous and async routes cache one
// artifact, so a binary solve serves a later identical job and a job's
// result serves a later binary solve.
func TestJobsShareSolveCache(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i, solveFirst := range []bool{true, false} {
		p := testPath(t, 64, uint64(30+i))
		params := SolveParams{Solver: "bandwidth", K: 4 * p.MaxNodeWeight()}
		job := jobSubmitRequest{solveRequest: solveRequest{Solver: params.Solver, K: params.K, Graph: graphJSONOf(t, p)}}
		solve := func() *httptest.ResponseRecorder {
			rec := doBin(s.Handler(), "/v1/solve", mustSolveFrame(t, params, p), codec.ContentType)
			if rec.Code != http.StatusOK {
				t.Fatalf("binary solve = %d: %s", rec.Code, rec.Body)
			}
			return rec
		}
		runJob := func() JobStatusResponse {
			return waitJobState(t, ts.URL, submitJob(t, ts.URL, job).ID, jobs.StateSucceeded)
		}
		if solveFirst {
			solve()
			if st := runJob(); !st.Cached {
				t.Error("job after an identical binary solve was not served from the cache")
			}
		} else {
			runJob()
			if got := solve().Header().Get("X-Cache"); got != "HIT" {
				t.Errorf("binary solve after an identical job: X-Cache = %q, want HIT", got)
			}
		}
	}
}
