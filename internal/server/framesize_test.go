package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/jobs"
)

// cachedFrames returns every frame c holds.
func cachedFrames(c *Cache) [][]byte {
	var out [][]byte
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*cacheEntry).body)
		}
		s.mu.Unlock()
	}
	return out
}

// checkExactFrames fails unless s caches want frames, each allocated at
// exactly its length: the cache keeps a frame long after its request, and
// spare capacity would ride along with it.
func checkExactFrames(t *testing.T, name string, s *Server, want int) {
	t.Helper()
	frames := cachedFrames(s.cache)
	if len(frames) != want {
		t.Fatalf("%s: %d cached frames, want %d", name, len(frames), want)
	}
	for i, f := range frames {
		if cap(f) != len(f) {
			t.Errorf("%s: cached frame %d has %d bytes in a capacity of %d", name, i, len(f), cap(f))
		}
	}
}

// TestCachedFramesExactSize: frames cached through /v1/solve (JSON and
// binary, with and without a certificate), /v1/batch and /v1/jobs, and a
// frame a non-owner receives from its owner, carry no spare capacity.
func TestCachedFramesExactSize(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	p := testPath(t, 2000, 41)
	g := graphJSONOf(t, p)
	maxW := p.MaxNodeWeight()

	for i, verify := range []bool{false, true} {
		rec := doJSON(t, s.Handler(), "POST", "/v1/solve", solveRequest{Solver: "bandwidth", K: 1.2 * maxW, Graph: g, Verify: verify})
		if rec.Code != http.StatusOK {
			t.Fatalf("JSON solve: %d %s", rec.Code, rec.Body)
		}
		checkExactFrames(t, "/v1/solve JSON", s, i+1)
	}
	frame, err := AppendSolveRequest(nil, SolveParams{Solver: "bandwidth", K: 4 * maxW}, p)
	if err != nil {
		t.Fatal(err)
	}
	if rec := doBin(s.Handler(), "/v1/solve", frame, ""); rec.Code != http.StatusOK {
		t.Fatalf("binary solve: %d %s", rec.Code, rec.Body)
	}
	checkExactFrames(t, "/v1/solve binary", s, 3)

	rec := doJSON(t, s.Handler(), "POST", "/v1/batch", batchRequest{Requests: []solveRequest{
		{Solver: "bandwidth", K: 20 * maxW, Graph: g},
		{Solver: "bandwidth", K: 20 * maxW, Graph: g, Verify: true},
		{Solver: "minproc", K: 4 * maxW, Graph: g},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	checkExactFrames(t, "/v1/batch", s, 6)

	sub := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "bottleneck", K: 4 * maxW, Graph: g}})
	waitJobState(t, ts.URL, sub.ID, jobs.StateSucceeded)
	checkExactFrames(t, "/v1/jobs", s, 7)

	nodes := newTestCluster(t, 2)
	owned, _ := graphOwnedBy(t, nodes, 0)
	frame, err = AppendSolveRequest(nil, SolveParams{Solver: "bandwidth", K: 4 * owned.MaxNodeWeight()}, owned)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postBinarySolve(t, nodes[1].url, frame, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cluster") != "forwarded "+nodes[0].url {
		t.Fatalf("forwarded solve: %d %q %s", resp.StatusCode, resp.Header.Get("X-Cluster"), body)
	}
	checkExactFrames(t, "owner", nodes[0].srv, 1)
	checkExactFrames(t, "forwarding node", nodes[1].srv, 1)
}
