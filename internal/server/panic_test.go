package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/jobs"
)

// panicSolver panics on every solve, standing in for a solver bug.
type panicSolver struct{}

func (panicSolver) Name() string                { return "test-panic" }
func (panicSolver) Kind() engine.Kind           { return engine.KindPath }
func (panicSolver) Objective() engine.Objective { return engine.ObjectiveUnknown }
func (panicSolver) Solve(context.Context, engine.Request) (engine.Result, error) {
	panic("boom")
}

// TestSolverPanicContained: a panicking solver fails its own request on
// every route — a 500 with a JSON error on /v1/solve, one failed item of a
// batch whose siblings succeed, a failed job — retains an error trace, and
// leaves the daemon serving.
func TestSolverPanicContained(t *testing.T) {
	engine.RegisterForTest(t, panicSolver{})
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := pathGraphJSON(t, 50, 71)
	post := func(path string, body any) (int, []byte) {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	code, raw := post("/v1/solve", solveRequest{Solver: "test-panic", K: 500, Graph: g})
	var errBody errorResponse
	if code != http.StatusInternalServerError || json.Unmarshal(raw, &errBody) != nil || !strings.Contains(errBody.Error, "panicked: boom") {
		t.Fatalf("/v1/solve = %d %s, want 500 with the panic in a JSON error", code, raw)
	}

	code, raw = post("/v1/batch", batchRequest{Requests: []solveRequest{
		{Solver: "test-panic", K: 500, Graph: g},
		{Solver: "bandwidth", K: 500, Graph: g},
	}})
	var batch batchResponse
	if code != http.StatusOK || json.Unmarshal(raw, &batch) != nil || len(batch.Items) != 2 {
		t.Fatalf("/v1/batch = %d %s, want 200 with two items", code, raw)
	}
	if it := batch.Items[0]; !strings.Contains(it.Error, "panicked: boom") || it.Result != nil {
		t.Errorf("panicking item = %+v, want the panic as its error", it)
	}
	if it := batch.Items[1]; it.Error != "" || it.Result == nil || batch.Stats.Solved != 1 || batch.Stats.Failed != 1 {
		t.Errorf("sibling item = %+v, stats %+v, want one solved and one failed", it, batch.Stats)
	}

	job := submitJob(t, ts.URL, solveRequest{Solver: "test-panic", K: 500, Graph: g})
	if st := waitJobState(t, ts.URL, job.ID, jobs.StateFailed); !strings.Contains(st.Error, "panicked: boom") {
		t.Errorf("job error = %q, want the panic", st.Error)
	}

	var list traceListResponse
	getJSON(t, ts.URL+"/v1/traces?solver=test-panic", &list)
	kinds := map[string]bool{}
	for _, tr := range list.Traces {
		if tr.Reason == "error" && tr.Status == http.StatusInternalServerError && strings.Contains(tr.Err, "panicked") {
			kinds[tr.Kind] = true
		}
	}
	if !kinds["solve"] || !kinds["job"] {
		t.Errorf("retained traces = %+v, want error traces of a solve and a job", list.Traces)
	}

	if code, raw := post("/v1/solve", solveRequest{Solver: "bandwidth", K: 500, Graph: pathGraphJSON(t, 50, 72)}); code != http.StatusOK {
		t.Fatalf("solve after the panics = %d %s, want 200", code, raw)
	}
}

// TestForwardedSolvePanicOnOwner: on a two-node cluster, a solve forwarded
// to an owner whose solver panics gets the owner's 500, counts one forward
// error, falls back to a local solve — which panics too, the solver being
// the same — and answers 500 with a JSON error. Both nodes keep serving.
func TestForwardedSolvePanicOnOwner(t *testing.T) {
	engine.RegisterForTest(t, panicSolver{})
	nodes := newTestCluster(t, 2)
	g, _ := graphOwnedBy(t, nodes, 0)
	forwarder := nodes[1]
	errorsBefore := forwarder.clu.Status().Forwards.Errors

	resp, body, err := postJSONSolve(forwarder.url, solveRequest{Solver: "test-panic", K: 500, Graph: graphJSONOf(t, g)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var errBody errorResponse
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(body, &errBody) != nil || !strings.Contains(errBody.Error, "panicked: boom") {
		t.Fatalf("forwarded panicking solve = %d %s, want 500 with the panic in a JSON error", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cluster"); strings.HasPrefix(got, "forwarded") {
		t.Errorf("X-Cluster = %q, want the local fallback", got)
	}
	st := forwarder.clu.Status()
	if got := st.Forwards.Errors - errorsBefore; got != 1 {
		t.Errorf("forward errors went up by %d, want 1", got)
	}
	if st.Alive != 2 {
		t.Errorf("alive = %d after the owner's 500, want 2: a solver fault is not a dead peer", st.Alive)
	}
	if m := getText(t, forwarder.url+"/metrics"); !strings.Contains(m, fmt.Sprintf("partitiond_cluster_forwards_total{outcome=\"error\"} %d", errorsBefore+1)) {
		t.Error("partitiond_cluster_forwards_total{outcome=\"error\"} did not go up by 1")
	}

	resp, body, err = postJSONSolve(forwarder.url, solveRequest{Solver: "bandwidth", K: 500, Graph: graphJSONOf(t, g)}, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("next solve = %v %s, want 200", err, body)
	}
	if got := resp.Header.Get("X-Cluster"); got != "forwarded "+nodes[0].url {
		t.Errorf("next solve X-Cluster = %q, want forwarded to the owner", got)
	}
}
