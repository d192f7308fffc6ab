package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// doJSONRawHeaders is doJSONRaw with extra request headers.
func doJSONRawHeaders(h http.Handler, method, path string, body any, headers map[string]string) *httptest.ResponseRecorder {
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
	for k, v := range headers {
		if v != "" {
			req.Header.Set(k, v)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func solveBody(t *testing.T, graphSeed uint64, extra map[string]any) map[string]any {
	t.Helper()
	body := map[string]any{
		"solver": "bandwidth",
		"k":      250,
		"graph":  pathGraphJSON(t, 64, graphSeed),
	}
	for k, v := range extra {
		body[k] = v
	}
	return body
}

func TestRequestIDHeader(t *testing.T) {
	s := newTestServer(t, Config{})
	tests := []struct {
		name   string
		sent   string
		echoed bool
	}{
		{"client id echoed", "client-abc-123", true},
		{"absent generates", "", false},
		{"too long regenerated", strings.Repeat("x", 65), false},
		{"non-printable regenerated", "has space", false},
		{"control regenerated", "tab\tchar", false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rec := doJSONRawHeaders(s.Handler(), "POST", "/v1/solve", solveBody(t, 1, nil),
				map[string]string{"X-Request-ID": tc.sent})
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
			}
			got := rec.Header().Get("X-Request-ID")
			if tc.echoed {
				if got != tc.sent {
					t.Errorf("X-Request-ID = %q, want echoed %q", got, tc.sent)
				}
				return
			}
			if got == "" || got == tc.sent {
				t.Errorf("X-Request-ID = %q, want a generated id distinct from %q", got, tc.sent)
			}
		})
	}
}

func TestSolveTraceResponse(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := doJSONRawHeaders(s.Handler(), "POST", "/v1/solve",
		solveBody(t, 2, map[string]any{"trace": true}),
		map[string]string{"X-Request-ID": "trace-req-1"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("response has no trace")
	}
	if resp.Trace.Name != "solve bandwidth" {
		t.Errorf("root span = %q, want %q", resp.Trace.Name, "solve bandwidth")
	}
	var phases []string
	found := false
	for _, c := range resp.Trace.Children {
		if c.Name == "bandwidth" {
			found = true
			for _, p := range c.Children {
				phases = append(phases, p.Name)
			}
		}
	}
	if !found {
		t.Fatalf("trace has no solver span (children of root: %v)", resp.Trace.Children)
	}
	want := map[string]bool{"prime-extract": false, "temps-dp": false, "build-partition": false}
	for _, p := range phases {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("trace missing phase span %q (got %v)", p, phases)
		}
	}
}

func TestUntracedSolveOmitsTrace(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := doJSON(t, s.Handler(), "POST", "/v1/solve", solveBody(t, 3, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if strings.Contains(rec.Body.String(), `"trace"`) {
		t.Errorf("untraced response contains a trace field: %s", rec.Body.String())
	}
}

// TestTraceCacheSeparation checks a traced request never replays a cached
// answer — its tree must describe its own solve — while its solve still
// fills the cache for untraced requests.
func TestTraceCacheSeparation(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	first := doJSON(t, h, "POST", "/v1/solve", solveBody(t, 4, nil))
	if c := first.Header().Get("X-Cache"); c != "MISS" {
		t.Fatalf("first solve X-Cache = %q, want MISS", c)
	}
	traced := doJSON(t, h, "POST", "/v1/solve", solveBody(t, 4, map[string]any{"trace": true}))
	if c := traced.Header().Get("X-Cache"); c != "MISS" {
		t.Errorf("traced solve X-Cache = %q, want MISS (untraced entry must not satisfy it)", c)
	}
	if !strings.Contains(traced.Body.String(), `"trace"`) {
		t.Errorf("traced solve response has no trace")
	}
	replayUntraced := doJSON(t, h, "POST", "/v1/solve", solveBody(t, 4, nil))
	if c := replayUntraced.Header().Get("X-Cache"); c != "HIT" {
		t.Errorf("untraced replay X-Cache = %q, want HIT", c)
	}
	if strings.Contains(replayUntraced.Body.String(), `"trace"`) {
		t.Errorf("untraced replay contains a trace field")
	}
	replayTraced := doJSON(t, h, "POST", "/v1/solve", solveBody(t, 4, map[string]any{"trace": true}))
	if c := replayTraced.Header().Get("X-Cache"); c != "MISS" {
		t.Errorf("traced replay X-Cache = %q, want MISS (a fresh solve)", c)
	}
	var orig, again SolveResponse
	if err := json.Unmarshal(traced.Body.Bytes(), &orig); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(replayTraced.Body.Bytes(), &again); err != nil {
		t.Fatal(err)
	}
	if again.Trace == nil || again.TraceID == "" || again.TraceID == orig.TraceID {
		t.Errorf("traced replay traceId = %q (original %q), want a new trace", again.TraceID, orig.TraceID)
	}
}

// TestBatchIgnoresTraceFlag checks batch items are solved untraced: a batch
// item with trace:true fills (and hits) the same cache entry as an untraced
// /v1/solve.
func TestBatchIgnoresTraceFlag(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	item := solveBody(t, 5, map[string]any{"trace": true})
	rec := doJSON(t, h, "POST", "/v1/batch", map[string]any{"requests": []any{item}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", rec.Code, rec.Body.String())
	}
	var bresp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Items) != 1 || bresp.Items[0].Error != "" {
		t.Fatalf("batch items = %+v", bresp.Items)
	}
	if strings.Contains(string(bresp.Items[0].Result), `"trace"`) {
		t.Errorf("batch item result contains a trace despite trace being solve-only")
	}
	// The batch-filled entry must satisfy an untraced solve for the same item.
	solo := doJSON(t, h, "POST", "/v1/solve", solveBody(t, 5, nil))
	if c := solo.Header().Get("X-Cache"); c != "HIT" {
		t.Errorf("untraced solve after batch X-Cache = %q, want HIT", c)
	}
}

func TestMetricsHistograms(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	if rec := doJSON(t, h, "POST", "/v1/solve", solveBody(t, 6, nil)); rec.Code != http.StatusOK {
		t.Fatalf("solve status = %d", rec.Code)
	}
	rec := doJSON(t, h, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`partitiond_solve_duration_seconds_bucket{solver="bandwidth",le="+Inf"} 1`,
		`partitiond_solve_duration_seconds_count{solver="bandwidth"} 1`,
		`partitiond_solve_phase_seconds_total{solver="bandwidth",phase="prime-extract"}`,
		`partitiond_solve_phase_count_total{solver="bandwidth",phase="temps-dp"} 1`,
		`partitiond_http_request_duration_seconds_bucket{route="/v1/solve",le="+Inf"} 1`,
		"# TYPE partitiond_solve_duration_seconds histogram",
		"# TYPE partitiond_http_request_duration_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
