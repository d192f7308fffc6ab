package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

var (
	// metricsExemplarRe matches an OpenMetrics exemplar suffix on a bucket line.
	metricsExemplarRe = regexp.MustCompile(` # \{trace_id="[^"]*"\} \S+ \S+$`)
	// metricsSampleRe splits a sample line into its series and its value.
	metricsSampleRe = regexp.MustCompile(`^(\S+?(?:\{.*\})?) \S+$`)
	metricsGoRe     = regexp.MustCompile(`go_version="[^"]*"`)
)

// maskMetrics keeps the exposition's shape — HELP and TYPE lines, family
// order, series names and label sets — and masks what a run cannot pin:
// sample values, exemplars and the toolchain version.
func maskMetrics(t *testing.T, text string) string {
	t.Helper()
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = metricsExemplarRe.ReplaceAllString(line, "")
			if !metricsSampleRe.MatchString(line) {
				t.Fatalf("malformed sample line %q", line)
			}
			line = metricsSampleRe.ReplaceAllString(line, "$1 V")
			line = metricsGoRe.ReplaceAllString(line, `go_version="GO"`)
		}
		out.WriteString(line)
		out.WriteByte('\n')
	}
	return out.String()
}

// TestGoldenMetrics pins the /metrics exposition after a fixed request
// script: a JSON miss and hit, verify and trace solves, a rejected request,
// a batch, a job with its list, events and cancel routes, the trace and
// cluster routes — then, on a two-node cluster, a forwarded solve scraped
// from the forwarding node. Regenerate with
//
//	go test ./internal/server -run TestGoldenMetrics -update
func TestGoldenMetrics(t *testing.T) {
	p, tr := goldenGraphs(t)
	s := newTestServer(t, Config{TraceSample: 1})
	h := s.Handler()
	call := func(method, path string, body any, want int) []byte {
		t.Helper()
		rec := doJSON(t, h, method, path, body)
		if rec.Code != want {
			t.Fatalf("%s %s = %d, want %d: %s", method, path, rec.Code, want, rec.Body)
		}
		return rec.Body.Bytes()
	}
	bw := goldenCase{solver: "bandwidth", k: 4 * p.MaxNodeWeight()}
	call("GET", "/healthz", nil, http.StatusOK)
	call("GET", "/v1/solvers", nil, http.StatusOK)
	call("POST", "/v1/solve", bw.jsonRequest(t, p, tr), http.StatusOK)
	call("POST", "/v1/solve", bw.jsonRequest(t, p, tr), http.StatusOK)
	bw.verify = true
	call("POST", "/v1/solve", bw.jsonRequest(t, p, tr), http.StatusOK)
	traced := bw.jsonRequest(t, p, tr)
	traced.Trace = true
	call("POST", "/v1/solve", traced, http.StatusOK)
	call("POST", "/v1/solve", solveRequest{Solver: "bandwidth", K: 0, Graph: traced.Graph}, http.StatusBadRequest)
	pt := goldenCase{solver: "partition-tree", k: 3 * tr.MaxNodeWeight(), tree: true}
	mm := goldenCase{solver: "maxmin-tree", k: 5, tree: true}
	call("POST", "/v1/batch", batchRequest{Requests: []solveRequest{
		pt.jsonRequest(t, p, tr), mm.jsonRequest(t, p, tr),
	}}, http.StatusOK)
	sm := goldenCase{solver: "summax-tree", k: 5, tree: true}
	var js JobSubmitResponse
	if err := json.Unmarshal(call("POST", "/v1/jobs", jobSubmitRequest{solveRequest: sm.jsonRequest(t, p, tr)}, http.StatusAccepted), &js); err != nil {
		t.Fatal(err)
	}
	waitGoldenJob(t, h, js.ID)
	call("GET", "/v1/jobs", nil, http.StatusOK)
	call("GET", "/v1/jobs/"+js.ID+"/events", nil, http.StatusOK)
	call("DELETE", "/v1/jobs/"+js.ID, nil, http.StatusAccepted)
	call("GET", "/v1/traces", nil, http.StatusOK)
	call("GET", "/v1/traces/ffffffffffffffffffffffffffffffff", nil, http.StatusNotFound)
	call("GET", "/v1/cluster", nil, http.StatusOK)
	var out strings.Builder
	out.WriteString("== standalone\n")
	out.WriteString(maskMetrics(t, string(call("GET", "/metrics", nil, http.StatusOK))))

	nodes := newTestCluster(t, 2)
	g, _ := graphOwnedBy(t, nodes, 1)
	resp, _ := postBinarySolve(t, nodes[0].url, mustSolveFrame(t, SolveParams{Solver: "bandwidth", K: 4 * g.MaxNodeWeight()}, g), nil)
	if got := resp.Header.Get("X-Cluster"); got != "forwarded "+nodes[1].url {
		t.Fatalf("X-Cluster = %q, want a forward to node 1", got)
	}
	out.WriteString("== cluster forwarder\n")
	out.WriteString(maskMetrics(t, getText(t, nodes[0].url+"/metrics")))
	checkGolden(t, "golden_metrics.txt", out.String())
}

// solveBucketRe matches one bandwidth solve-duration bucket line, with the
// value of its exemplar when it carries one.
var solveBucketRe = regexp.MustCompile(`(?m)^partitiond_solve_duration_seconds_bucket\{solver="bandwidth",le="([^"]+)"\} (\d+)(?: # \{trace_id="[0-9a-f]+"\} (\S+) \S+)?$`)

// TestExemplarIsSolveDuration: a solve-histogram exemplar is an observation
// that histogram counted — the engine solve's own duration — so it sits in a
// bucket that holds a solve, even when the request waited far longer for
// its admission slot than it solved.
func TestExemplarIsSolveDuration(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, TraceSample: 1})
	h := s.Handler()
	release, ok := s.limiter.TryAcquire()
	if !ok {
		t.Fatal("the only admission slot is taken")
	}
	body := solveBody(t, 66, nil)
	done := make(chan int)
	go func() { done <- doJSONRaw(h, "POST", "/v1/solve", body).Code }()
	for s.limiter.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("solve status = %d", code)
	}

	text := doJSON(t, h, "GET", "/metrics", nil).Body.String()
	exemplars := 0
	var prevCum uint64
	prevLe := math.Inf(-1)
	for _, m := range solveBucketRe.FindAllStringSubmatch(text, -1) {
		le, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		cum, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if m[3] != "" {
			exemplars++
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatal(err)
			}
			if cum == prevCum {
				t.Errorf("exemplar %v sits in bucket le=%q, which counted no solve", v, m[1])
			}
			if !(v > prevLe && v <= le) {
				t.Errorf("exemplar %v is outside its bucket (%v, %v]", v, prevLe, le)
			}
		}
		prevCum, prevLe = cum, le
	}
	if exemplars == 0 {
		t.Fatal("/metrics carries no solve exemplar")
	}
}

// TestUnknownSolverRejectedAtDecode: a solver name the registry does not know
// is a 400 before admission — it creates no metric series, takes no slot and
// leaves no trace — with the registry's own error text, on /v1/solve, in a
// batch item and at job submission.
func TestUnknownSolverRejectedAtDecode(t *testing.T) {
	s := newTestServer(t, Config{TraceSample: 1})
	h := s.Handler()
	g := pathGraphJSON(t, 32, 9)
	admitted := s.limiter.Stats().Admitted
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("bogus-%d", i)
		_, gerr := engine.Get(name)
		if gerr == nil {
			t.Fatalf("%s is registered", name)
		}
		want, _ := json.Marshal(errorResponse{Error: gerr.Error()})
		req := solveRequest{Solver: name, K: 500, Graph: g}
		rec := doJSON(t, h, "POST", "/v1/solve", req)
		if rec.Code != http.StatusBadRequest || rec.Body.String() != string(want)+"\n" {
			t.Errorf("solve %s = %d %s, want 400 %s", name, rec.Code, rec.Body, want)
		}
		var br batchResponse
		rec = doJSON(t, h, "POST", "/v1/batch", batchRequest{Requests: []solveRequest{req}})
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || len(br.Items) != 1 || br.Items[0].Error != gerr.Error() {
			t.Errorf("batch %s = %d %s, want item error %q", name, rec.Code, rec.Body, gerr)
		}
		if rec := doJSON(t, h, "POST", "/v1/jobs", jobSubmitRequest{solveRequest: req}); rec.Code != http.StatusBadRequest {
			t.Errorf("job %s = %d %s, want 400", name, rec.Code, rec.Body)
		}
	}
	text := doJSON(t, h, "GET", "/metrics", nil).Body.String()
	if strings.Contains(text, `solver="bogus-`) {
		t.Error("unknown solver names created metric series")
	}
	if got := s.limiter.Stats().Admitted; got != admitted {
		t.Errorf("admitted = %d, want %d: unknown solvers took slots", got, admitted)
	}
	if st := s.recorder.Stats(); st.Offered != 0 || st.Traces != 0 {
		t.Errorf("recorder offered %d, retained %d traces for unknown solvers", st.Offered, st.Traces)
	}
	if st := s.jobs.Stats(); st.Submitted != 0 {
		t.Errorf("%d jobs submitted for unknown solvers", st.Submitted)
	}
}
