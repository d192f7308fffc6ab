package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/jobs"
)

// TestTracesListAndGet drives the flight-recorder query API end to end on a
// standalone node: with head sampling at 1 every solve is retained, listable,
// fetchable by ID, and renderable as a Chrome trace-event document.
func TestTracesListAndGet(t *testing.T) {
	s := newTestServer(t, Config{TraceSample: 1})
	h := s.Handler()

	rec := doJSON(t, h, "POST", "/v1/solve", solveBody(t, 60, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("solve status = %d, body %s", rec.Code, rec.Body.String())
	}

	var list traceListResponse
	lrec := doJSON(t, h, "GET", "/v1/traces", nil)
	if lrec.Code != http.StatusOK {
		t.Fatalf("list status = %d", lrec.Code)
	}
	if err := json.Unmarshal(lrec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if !list.Enabled || list.Total != 1 || len(list.Traces) != 1 {
		t.Fatalf("list = %+v, want enabled with exactly one trace", list)
	}
	tr := list.Traces[0]
	if tr.Solver != "bandwidth" || tr.Kind != "solve" || tr.Outcome != "ok" || tr.Reason != "sampled" {
		t.Errorf("record = %+v, want bandwidth/solve/ok/sampled", tr)
	}
	if len(tr.TraceID) != 32 {
		t.Errorf("trace ID = %q, want 32 hex chars", tr.TraceID)
	}
	if tr.Spans < 2 {
		t.Errorf("spans = %d, want the root plus solver phases", tr.Spans)
	}

	grec := doJSON(t, h, "GET", "/v1/traces/"+tr.TraceID, nil)
	if grec.Code != http.StatusOK {
		t.Fatalf("get status = %d", grec.Code)
	}
	var got traceGetResponse
	if err := json.Unmarshal(grec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.TraceID != tr.TraceID || len(got.Tree) == 0 {
		t.Fatalf("get = %+v, want the record with its span tree", got)
	}
	if !strings.Contains(string(got.Tree), `"bandwidth"`) {
		t.Errorf("span tree %s has no solver span", got.Tree)
	}

	crec := doJSON(t, h, "GET", "/v1/traces/"+tr.TraceID+"?format=chrome", nil)
	if crec.Code != http.StatusOK {
		t.Fatalf("chrome render status = %d", crec.Code)
	}
	body := crec.Body.String()
	if !strings.Contains(body, `"traceEvents"`) || !strings.Contains(body, tr.TraceID) {
		t.Errorf("chrome document missing traceEvents or the trace ID: %s", body)
	}

	if miss := doJSON(t, h, "GET", "/v1/traces/ffffffffffffffffffffffffffffffff", nil); miss.Code != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", miss.Code)
	}
}

// TestTracesListFiltersAndValidation: the solver filter narrows the list and
// malformed query parameters answer 400.
func TestTracesListFiltersAndValidation(t *testing.T) {
	s := newTestServer(t, Config{TraceSample: 1})
	h := s.Handler()
	if rec := doJSON(t, h, "POST", "/v1/solve", solveBody(t, 61, nil)); rec.Code != http.StatusOK {
		t.Fatalf("solve status = %d", rec.Code)
	}

	var matched traceListResponse
	lrec := doJSON(t, h, "GET", "/v1/traces?solver=bandwidth&outcome=ok&limit=5&since=1h", nil)
	if err := json.Unmarshal(lrec.Body.Bytes(), &matched); err != nil {
		t.Fatal(err)
	}
	if len(matched.Traces) != 1 {
		t.Errorf("filtered list has %d traces, want 1", len(matched.Traces))
	}
	var other traceListResponse
	orec := doJSON(t, h, "GET", "/v1/traces?solver=no-such-solver", nil)
	if err := json.Unmarshal(orec.Body.Bytes(), &other); err != nil {
		t.Fatal(err)
	}
	if len(other.Traces) != 0 {
		t.Errorf("list for an unknown solver has %d traces, want 0", len(other.Traces))
	}

	for _, q := range []string{"minDurationMs=abc", "minDurationMs=-1", "minDurationMs=NaN", "minDurationMs=Inf",
		"minDurationMs=-Inf", "since=not-a-time", "limit=0", "limit=x"} {
		if rec := doJSON(t, h, "GET", "/v1/traces?"+q, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("GET /v1/traces?%s status = %d, want 400", q, rec.Code)
		}
	}
	// A finite bound past the time.Duration range filters as the longest
	// duration: no trace took that long.
	for _, ms := range []string{"1000000", "9223372036854.775807", "1e300"} {
		var long traceListResponse
		rec := doJSON(t, h, "GET", "/v1/traces?minDurationMs="+ms, nil)
		if err := json.Unmarshal(rec.Body.Bytes(), &long); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || len(long.Traces) != 0 {
			t.Errorf("GET /v1/traces?minDurationMs=%s: status %d, %d traces; want 200 and none", ms, rec.Code, len(long.Traces))
		}
	}
}

// TestTracesDisabled: a negative TraceStore turns the recorder off; the query
// API stays up and says so instead of 404ing the route away.
func TestTracesDisabled(t *testing.T) {
	s := newTestServer(t, Config{TraceStore: -1})
	h := s.Handler()
	if rec := doJSON(t, h, "POST", "/v1/solve", solveBody(t, 62, nil)); rec.Code != http.StatusOK {
		t.Fatalf("solve status = %d", rec.Code)
	}
	var list traceListResponse
	lrec := doJSON(t, h, "GET", "/v1/traces", nil)
	if lrec.Code != http.StatusOK {
		t.Fatalf("list status = %d", lrec.Code)
	}
	if err := json.Unmarshal(lrec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Enabled || len(list.Traces) != 0 {
		t.Errorf("disabled list = %+v, want enabled:false and no traces", list)
	}
	if rec := doJSON(t, h, "GET", "/v1/traces/ffffffffffffffffffffffffffffffff", nil); rec.Code != http.StatusNotFound {
		t.Errorf("disabled get status = %d, want 404", rec.Code)
	}
}

var exemplarRE = regexp.MustCompile(`# \{trace_id="([0-9a-f]{32})"\}`)

// TestMetricsExemplar is the exemplar acceptance check: after a solve,
// /metrics carries at least one OpenMetrics exemplar on a latency bucket and
// its trace ID resolves through GET /v1/traces/{id}.
func TestMetricsExemplar(t *testing.T) {
	s := newTestServer(t, Config{TraceSample: 1})
	h := s.Handler()
	if rec := doJSON(t, h, "POST", "/v1/solve", solveBody(t, 63, nil)); rec.Code != http.StatusOK {
		t.Fatalf("solve status = %d", rec.Code)
	}
	mrec := doJSON(t, h, "GET", "/metrics", nil)
	if mrec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", mrec.Code)
	}
	m := exemplarRE.FindStringSubmatch(mrec.Body.String())
	if m == nil {
		t.Fatal("/metrics carries no trace exemplar")
	}
	if !strings.Contains(mrec.Body.String(), `partitiond_solve_duration_seconds_bucket{solver="bandwidth"`) {
		t.Error("exemplar is not on the solve-duration histogram")
	}
	if rec := doJSON(t, h, "GET", "/v1/traces/"+m[1], nil); rec.Code != http.StatusOK {
		t.Errorf("exemplar trace %s is not retrievable: %d", m[1], rec.Code)
	}
}

// TestObsMetricsFamilies: the build-info, runtime, pool, and trace-store
// series all render.
func TestObsMetricsFamilies(t *testing.T) {
	s := newTestServer(t, Config{TraceSample: 1})
	h := s.Handler()
	if rec := doJSON(t, h, "POST", "/v1/solve", solveBody(t, 64, nil)); rec.Code != http.StatusOK {
		t.Fatalf("solve status = %d", rec.Code)
	}
	body := doJSON(t, h, "GET", "/metrics", nil).Body.String()
	for _, want := range []string{
		`partitiond_build_info{version="`,
		"partitiond_go_goroutines ",
		"partitiond_go_heap_alloc_bytes ",
		"partitiond_go_gc_cycles_total ",
		`partitiond_pool_requests_total{pool="solver-scratch",result="new"}`,
		"partitiond_traces_offered_total 1",
		`partitiond_traces_retained_total{reason="sampled"} 1`,
		"partitiond_traces_dropped_total 0",
		`partitiond_trace_store_evicted_total{cause="count"} 0`,
		"partitiond_trace_store_traces 1",
		`partitiond_trace_store_capacity{dimension="traces"} 512`,
		`partitiond_solver_in_flight{solver="bandwidth"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestJobSSETraceCorrelation: a job submitted under an X-Request-ID streams
// phase events carrying the trace and span IDs of the solve's spans, and that
// trace is retrievable from the flight recorder with the same request ID —
// the SSE ↔ trace-store correlation contract.
func TestJobSSETraceCorrelation(t *testing.T) {
	s := newTestServer(t, Config{TraceSample: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const rid = "job-trace-corr-1"
	body, err := json.Marshal(jobSubmitRequest{solveRequest: solveRequest{
		Solver: "bandwidth", K: 500, Graph: pathGraphJSON(t, 64, 65),
	}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub JobSubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
	}

	events := openSSE(t, ts, sub.ID, "")
	defer events.Body.Close()
	frames := readFrames(t, bufio.NewReader(events.Body), isTerminalFrame)
	waitJobState(t, ts.URL, sub.ID, jobs.StateSucceeded)

	var traceID string
	for _, f := range frames {
		if f.event != "phase" {
			continue
		}
		var p struct {
			Phase   string `json:"phase"`
			TraceID string `json:"trace_id"`
			SpanID  string `json:"span_id"`
		}
		if err := json.Unmarshal([]byte(f.data), &p); err != nil {
			t.Fatalf("bad phase payload %q: %v", f.data, err)
		}
		if p.TraceID == "" || p.SpanID == "" {
			t.Fatalf("phase event %q without trace identity: %q", p.Phase, f.data)
		}
		if traceID == "" {
			traceID = p.TraceID
		} else if p.TraceID != traceID {
			t.Fatalf("phase events span two traces: %s and %s", traceID, p.TraceID)
		}
	}
	if traceID == "" {
		t.Fatal("stream carried no phase events with a trace ID")
	}

	var got traceGetResponse
	getJSON(t, ts.URL+"/v1/traces/"+traceID, &got)
	if got.Kind != "job" || got.RequestID != rid {
		t.Errorf("retained record = %+v, want kind job with requestId %q", got.Record, rid)
	}
}
