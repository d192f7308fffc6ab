package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// clusterNode is one member of a test cluster: a real server on a loopback
// listener and its cluster view.
type clusterNode struct {
	srv *Server
	clu *cluster.Cluster
	url string
}

// solves is how many engine solves the node performed.
func (n *clusterNode) solves() uint64 { return solveCount(n.srv) }

// newTestCluster boots n partitiond nodes on loopback listeners, each
// configured with the full peer list. The health sweeper is not started —
// membership changes flow from passive forward-failure detection, keeping
// the tests deterministic.
func newTestCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		node := &clusterNode{url: urls[i]}
		clu, err := cluster.New(cluster.Config{
			Self:           urls[i],
			Peers:          urls,
			HealthInterval: time.Hour,
			Logger:         quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		node.clu = clu
		node.srv = New(Config{
			Cluster: clu,
			Logger:  quietLogger(),
		})
		go node.srv.Serve(listeners[i])
		nodes[i] = node
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			node.srv.Shutdown(ctx)
			clu.Close()
		})
	}
	return nodes
}

// fingerprintedPath builds a deterministic path graph plus its fingerprint.
func fingerprintedPath(t *testing.T, n int, seed uint64) (g *graph.Path, fp uint64) {
	t.Helper()
	g = testPath(t, n, seed)
	fp, err := graph.Fingerprint(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, fp
}

// ownerOf maps a fingerprint to the index of its owning node.
func ownerOf(t *testing.T, nodes []*clusterNode, fp uint64) int {
	t.Helper()
	peer, local := nodes[0].clu.Route(fp)
	if local {
		peer = nodes[0].url
	}
	for i, n := range nodes {
		if n.url == peer {
			return i
		}
	}
	t.Fatalf("owner %s is not a cluster node", peer)
	return -1
}

// graphOwnedBy searches seeds until it finds a path graph owned by nodes[want].
func graphOwnedBy(t *testing.T, nodes []*clusterNode, want int) (*graph.Path, uint64) {
	t.Helper()
	for seed := uint64(1); seed < 200; seed++ {
		g, fp := fingerprintedPath(t, 64, seed)
		if ownerOf(t, nodes, fp) == want {
			return g, fp
		}
	}
	t.Fatal("no seed produced a graph owned by the requested node")
	return nil, 0
}

func postBinarySolve(t *testing.T, url string, frame []byte, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", codec.ContentType)
	req.Header.Set("Accept", codec.ContentType)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func postJSONSolve(url string, sreq solveRequest, headers map[string]string) (*http.Response, []byte, error) {
	b, err := json.Marshal(sreq)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body, err
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// graphJSONOf renders a built graph through the canonical writer.
func graphJSONOf(t *testing.T, g *graph.Path) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	return json.RawMessage(buf.Bytes())
}

// TestClusterForwardedBinaryByteIdentical is the wire-fidelity acceptance
// check: a binary solve forwarded through a non-owner returns exactly the
// bytes the owner serves locally, and the owner attributes the internal
// lookup to the peer tier.
func TestClusterForwardedBinaryByteIdentical(t *testing.T) {
	nodes := newTestCluster(t, 3)
	g, fp := graphOwnedBy(t, nodes, 0)
	nonOwner := nodes[1]

	frame, err := AppendSolveRequest(nil, SolveParams{Solver: "bandwidth", K: 500}, g)
	if err != nil {
		t.Fatal(err)
	}
	resp, viaPeer := postBinarySolve(t, nonOwner.url, frame, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded solve: %d %s", resp.StatusCode, viaPeer)
	}
	if got := resp.Header.Get("X-Cluster"); got != "forwarded "+nodes[0].url {
		t.Errorf("X-Cluster = %q, want %q", got, "forwarded "+nodes[0].url)
	}
	sr, rest, err := DecodeSolveResult(viaPeer)
	if err != nil || len(rest) != 0 {
		t.Fatalf("forwarded response is not one PRS1 frame: %v (%d trailing)", err, len(rest))
	}
	if sr.Fingerprint != fp {
		t.Errorf("fingerprint = %x, want %x", sr.Fingerprint, fp)
	}

	// The owner must now hold the result: same bytes, straight from cache.
	resp2, local := postBinarySolve(t, nodes[0].url, frame, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("owner solve: %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("owner X-Cache = %q, want HIT (forward should have filled its cache)", got)
	}
	if !bytes.Equal(viaPeer, local) {
		t.Error("forwarded and owner-local response bytes differ")
	}

	if got := nodes[0].solves(); got != 1 {
		t.Errorf("owner performed %d solves, want 1", got)
	}
	if got := nonOwner.solves(); got != 0 {
		t.Errorf("non-owner performed %d solves, want 0", got)
	}
	metrics := getText(t, nodes[0].url+"/metrics")
	if !strings.Contains(metrics, `partitiond_cache_requests_total{tier="peer",result="miss"} 1`) {
		t.Error("owner metrics missing the peer-tier miss")
	}
	fwd := getText(t, nonOwner.url+"/metrics")
	if !strings.Contains(fwd, `partitiond_cluster_forwards_total{outcome="miss"} 1`) {
		t.Error("non-owner metrics missing the forward")
	}
}

// TestClusterWideSingleSolve is the thundering-herd acceptance check: M
// concurrent identical requests spread across every node — the owner
// included — perform exactly one engine solve cluster-wide.
func TestClusterWideSingleSolve(t *testing.T) {
	nodes := newTestCluster(t, 3)
	g, _ := graphOwnedBy(t, nodes, 2)
	sreq := solveRequest{Solver: "bandwidth", K: 700, Graph: graphJSONOf(t, g)}

	const m = 12
	bodies := make([][]byte, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body, err := postJSONSolve(nodes[i%len(nodes)].url, sreq, nil)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < m; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	var total uint64
	for i, n := range nodes {
		c := n.solves()
		total += c
		if c != 0 && i != 2 {
			t.Errorf("non-owner node %d performed %d solves", i, c)
		}
	}
	if total != 1 {
		t.Fatalf("cluster performed %d engine solves for %d identical requests, want exactly 1", total, m)
	}
}

// TestClusterOwnerDeathFailover: killing the owner degrades requests on the
// survivors to local solves — no request fails — and the dead peer shows up
// in /v1/cluster.
func TestClusterOwnerDeathFailover(t *testing.T) {
	nodes := newTestCluster(t, 3)
	g, _ := graphOwnedBy(t, nodes, 0)
	sreq := solveRequest{Solver: "bandwidth", K: 600, Graph: graphJSONOf(t, g)}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := nodes[0].srv.Shutdown(ctx); err != nil {
		t.Fatalf("owner shutdown: %v", err)
	}

	survivor := nodes[1]
	resp, body, err := postJSONSolve(survivor.url, sreq, nil)
	if err != nil {
		t.Fatalf("solve against survivor: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after owner death: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cluster"); got != "local" {
		t.Errorf("X-Cluster = %q, want local (forward must fall back)", got)
	}
	if got := survivor.solves(); got != 1 {
		t.Errorf("survivor performed %d solves, want 1", got)
	}

	var cs clusterResponse
	getJSON(t, survivor.url+"/v1/cluster", &cs)
	dead := 0
	for _, p := range cs.Peers {
		if p.State == "dead" {
			dead++
			if p.URL != nodes[0].url {
				t.Errorf("dead peer = %s, want %s", p.URL, nodes[0].url)
			}
		}
	}
	if dead != 1 || cs.Alive != 2 {
		t.Errorf("peers = %+v (alive %d), want exactly the owner dead", cs.Peers, cs.Alive)
	}

	// The fallback result was cached locally: the retry is a pure hit.
	resp2, _, err := postJSONSolve(survivor.url, sreq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("retry X-Cache = %q, want HIT", got)
	}
}

// TestClusterForwardRejectsForeignFrame: an owner that answers 200 with a
// PRS1 frame for another request, or with a truncated one, costs the
// forwarder its forward, never its answer. The forwarder solves locally,
// says so in X-Cluster, and caches its own frame, not the peer's.
func TestClusterForwardRejectsForeignFrame(t *testing.T) {
	ref := newTestServer(t, Config{}).Handler()
	answer := func(params SolveParams, g *graph.Path) []byte {
		rec := doBin(ref, "/v1/solve", mustSolveFrame(t, params, g), codec.ContentType)
		if rec.Code != http.StatusOK {
			t.Fatalf("reference solve: %d %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	want := SolveParams{Solver: "bandwidth", K: 500}
	other, _ := fingerprintedPath(t, 64, 0)
	for _, c := range []struct {
		name  string
		frame func(g *graph.Path) []byte // the stub owner's answer for g
	}{
		{"other graph", func(*graph.Path) []byte { return answer(want, other) }},
		{"other K", func(g *graph.Path) []byte { return answer(SolveParams{Solver: "bandwidth", K: 600}, g) }},
		{"other solver", func(g *graph.Path) []byte { return answer(SolveParams{Solver: "bandwidth-naive", K: 500}, g) }},
		{"unasked certificate", func(g *graph.Path) []byte {
			return answer(SolveParams{Solver: "bandwidth", K: 500, Verify: true}, g)
		}},
		{"truncated", func(g *graph.Path) []byte { b := answer(want, g); return b[:len(b)-3] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stub atomic.Pointer[[]byte]
			owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", codec.ContentType)
				w.Write(*stub.Load())
			}))
			defer owner.Close()
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			self := "http://" + l.Addr().String()
			clu, err := cluster.New(cluster.Config{
				Self:           self,
				Peers:          []string{self, owner.URL},
				HealthInterval: time.Hour,
				Logger:         quietLogger(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer clu.Close()
			srv := New(Config{Cluster: clu, Logger: quietLogger()})
			go srv.Serve(l)
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			}()
			var g *graph.Path
			var fp uint64
			for seed := uint64(1); g == nil; seed++ {
				h, hfp := fingerprintedPath(t, 64, seed)
				if _, local := clu.Route(hfp); !local {
					g, fp = h, hfp
				}
			}
			frame := c.frame(g)
			stub.Store(&frame)
			local, _, err := DecodeSolveResult(answer(want, g))
			if err != nil {
				t.Fatal(err)
			}

			req := mustSolveFrame(t, want, g)
			resp, body := postBinarySolve(t, self, req, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("solve: %d %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Cluster"); got != "local" {
				t.Errorf("X-Cluster = %q, want local (the owner's frame must be refused)", got)
			}
			sr, rest, err := DecodeSolveResult(body)
			if err != nil || len(rest) != 0 {
				t.Fatalf("response is not one PRS1 frame: %v (%d trailing)", err, len(rest))
			}
			if sr.Fingerprint != fp || sr.K != want.K || sr.Verify != nil || !slices.Equal(sr.Cut, local.Cut) {
				t.Errorf("answer: fingerprint %x, K %v, cut %v; want %x, %v, %v", sr.Fingerprint, sr.K, sr.Cut, fp, want.K, local.Cut)
			}
			if got := solveCount(srv); got != 1 {
				t.Errorf("forwarder performed %d solves, want 1", got)
			}
			resp, again := postBinarySolve(t, self, req, nil)
			if got := resp.Header.Get("X-Cache"); got != "HIT" || !bytes.Equal(again, body) {
				t.Errorf("repeat: X-Cache %q, same bytes %t; want a HIT on the local answer", got, bytes.Equal(again, body))
			}
		})
	}
}

// TestClusterHopGuard: a request already marked internal is never forwarded
// again, even from a non-owner — the loop-prevention invariant.
func TestClusterHopGuard(t *testing.T) {
	nodes := newTestCluster(t, 3)
	g, _ := graphOwnedBy(t, nodes, 0)
	sreq := solveRequest{Solver: "bandwidth", K: 800, Graph: graphJSONOf(t, g)}

	nonOwner := nodes[1]
	resp, body, err := postJSONSolve(nonOwner.url, sreq, map[string]string{cluster.InternalHeader: "1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("internal solve: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cluster"); got != "local" {
		t.Errorf("X-Cluster = %q, want local (hop guard must prevent re-forwarding)", got)
	}
	if got := nonOwner.solves(); got != 1 {
		t.Errorf("non-owner performed %d solves, want 1 (locally, without forwarding)", got)
	}
	st := nonOwner.clu.Status()
	if st.Forwards.Hit+st.Forwards.Miss+st.Forwards.Errors != 0 {
		t.Errorf("forwards = %+v, want none", st.Forwards)
	}
	metrics := getText(t, nonOwner.url+"/metrics")
	if !strings.Contains(metrics, `partitiond_cache_requests_total{tier="peer",result="miss"} 1`) {
		t.Error("internal request not attributed to the peer tier")
	}
}

// TestClusterStatusEndpoints: /v1/cluster and the /v1/solvers envelope on
// clustered and standalone servers.
func TestClusterStatusEndpoints(t *testing.T) {
	nodes := newTestCluster(t, 3)
	var cs clusterResponse
	getJSON(t, nodes[1].url+"/v1/cluster", &cs)
	if !cs.Enabled || cs.Self != nodes[1].url || len(cs.Peers) != 3 || cs.Alive != 3 {
		t.Errorf("clusterResponse = %+v", cs)
	}
	selfRows := 0
	for _, p := range cs.Peers {
		if p.Self {
			selfRows++
			if p.URL != nodes[1].url {
				t.Errorf("self row = %s, want %s", p.URL, nodes[1].url)
			}
		}
	}
	if selfRows != 1 {
		t.Errorf("%d self rows, want 1", selfRows)
	}
	var sv solversResponse
	getJSON(t, nodes[0].url+"/v1/solvers", &sv)
	if sv.Cluster == nil || !sv.Cluster.Enabled || sv.Cluster.Size != 3 || sv.Cluster.Alive != 3 {
		t.Errorf("solvers cluster envelope = %+v", sv.Cluster)
	}

	// Standalone: the route answers with enabled=false and no envelope.
	s := newTestServer(t, Config{})
	rec := doJSON(t, s.Handler(), "GET", "/v1/cluster", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("standalone /v1/cluster: %d", rec.Code)
	}
	var standalone clusterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &standalone); err != nil {
		t.Fatal(err)
	}
	if standalone.Enabled || len(standalone.Peers) != 0 {
		t.Errorf("standalone clusterResponse = %+v, want disabled", standalone)
	}
	recS := doJSON(t, s.Handler(), "GET", "/v1/solvers", nil)
	if strings.Contains(recS.Body.String(), `"cluster"`) {
		t.Error("standalone /v1/solvers should omit the cluster envelope")
	}
}

// TestSolveSingleFlightLocal: on a single (non-clustered) node, N identical
// concurrent misses perform one engine solve, with every caller served the
// same bytes — the sync-path fix for the duplicated-work gap the jobs
// subsystem already closed for async submissions.
func TestSolveSingleFlightLocal(t *testing.T) {
	s := newTestServer(t, Config{})
	started, release := armGate(t)

	sreq := solveRequest{Solver: "test-gate", K: 42, Graph: pathGraphJSON(t, 50, 7)}
	const n = 8
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = doJSONRaw(s.Handler(), "POST", "/v1/solve", sreq)
		}(i)
	}
	<-started // the flight leader is inside the solver
	// Give the other callers time to join the leader's flight before letting
	// the solve finish; latecomers after this point hit the cache instead,
	// so the solve count stays 1 regardless of scheduling.
	time.Sleep(100 * time.Millisecond)
	release()
	wg.Wait()

	// The gate solver signals its channel once per invocation; we consumed
	// the leader's signal, so any leftover signal is a duplicated solve.
	if extra := len(started); extra != 0 {
		t.Fatalf("solver ran %d times for %d identical requests, want 1", 1+extra, n)
	}
	var sharedHdr int
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(recs[0].Body.Bytes(), rec.Body.Bytes()) {
			t.Errorf("request %d body differs", i)
		}
		if rec.Header().Get("X-Singleflight") == "shared" {
			sharedHdr++
		}
	}
	if sharedHdr == 0 {
		t.Error("no response carried X-Singleflight: shared")
	}
	metrics := doJSON(t, s.Handler(), "GET", "/metrics", nil).Body.String()
	if !strings.Contains(metrics, `partitiond_singleflight_total{result="lead"} 1`) {
		t.Error("metrics missing the flight lead")
	}
	if !strings.Contains(metrics, `partitiond_cache_requests_total{tier="local",result="miss"}`) {
		t.Error("metrics missing the local-tier cache series")
	}
}

// TestFlightCanceledWhenAllLeave: a synchronous leader whose client
// disconnects, with no other waiter, cancels its solve and frees its
// admission slot at once, and the next identical request leads a fresh
// flight rather than joining the abandoned one.
func TestFlightCanceledWhenAllLeave(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started, release := armGate(t)
	defer release()
	sreq := solveRequest{Solver: "test-gate", K: 42, Graph: pathGraphJSON(t, 16, 34)}
	body, _ := json.Marshal(sreq)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/solve", bytes.NewReader(body))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	cancel()
	<-done
	select {
	case <-gateCancels():
	case <-time.After(5 * time.Second):
		t.Fatal("the abandoned solve never saw its context end")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.limiter.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned solve still holds its admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	release()
	rec := doJSON(t, s.Handler(), "POST", "/v1/solve", sreq)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "MISS" || rec.Header().Get("X-Singleflight") != "" {
		t.Fatalf("next request: %d, X-Cache %q, X-Singleflight %q; want a 200 MISS that led its own flight",
			rec.Code, rec.Header().Get("X-Cache"), rec.Header().Get("X-Singleflight"))
	}
	if got := len(started); got != 1 {
		t.Errorf("solver started %d times for the next request, want 1", got)
	}
}

// TestClusterJobSolvedOnOwner: a job submitted to a node that does not own
// its graph forwards with its remaining budget and is solved once, on the
// owner. A job whose budget exceeds MaxTimeout, which the owner would
// clamp, solves where it was submitted.
func TestClusterJobSolvedOnOwner(t *testing.T) {
	nodes := newTestCluster(t, 3)
	g, _ := graphOwnedBy(t, nodes, 2)
	job := jobSubmitRequest{solveRequest: solveRequest{Solver: "bandwidth", K: 700, Graph: graphJSONOf(t, g), TimeoutMs: 30000}}

	st := waitJobState(t, nodes[0].url, submitJob(t, nodes[0].url, job).ID, jobs.StateSucceeded)
	for i, n := range nodes {
		want := uint64(0)
		if i == 2 {
			want = 1
		}
		if got := n.solves(); got != want {
			t.Errorf("node %d performed %d solves, want %d", i, got, want)
		}
	}
	resp, body, err := postJSONSolve(nodes[2].url, job.solveRequest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Cache") != "HIT" || !bytes.Equal(bytes.TrimRight(body, "\n"), st.Result) {
		t.Errorf("owner's answer (X-Cache %q) differs from the job's:\n%s\nvs\n%s", resp.Header.Get("X-Cache"), body, st.Result)
	}

	job.K, job.TimeoutMs = 800, 0 // the default budget: MaxJobTimeout
	waitJobState(t, nodes[0].url, submitJob(t, nodes[0].url, job).ID, jobs.StateSucceeded)
	if got := nodes[0].solves(); got != 1 {
		t.Errorf("node 0 performed %d solves for the long job, want 1", got)
	}

	// A forwarding job gives its solve slot back: while the owner holds
	// the solve, the submitting node has none in use.
	started, release := armGate(t)
	defer release()
	job.Solver, job.K, job.TimeoutMs = "test-gate", 900, 30000
	sub := submitJob(t, nodes[0].url, job)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("the forwarded job's solve never started")
	}
	if got := nodes[0].srv.limiter.Stats().InFlight; got != 0 {
		t.Errorf("submitting node holds %d solve slots while the owner solves, want 0", got)
	}
	release()
	waitJobState(t, nodes[0].url, sub.ID, jobs.StateSucceeded)
	if got := nodes[0].solves(); got != 1 {
		t.Errorf("node 0 performed %d solves, want the forwarded job solved on its owner", got)
	}
}

// findSpan walks a span tree depth-first for the first node with the name.
func findSpan(n *obs.SpanNode, name string) *obs.SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if got := findSpan(c, name); got != nil {
			return got
		}
	}
	return nil
}

// TestClusterTracePropagation is the distributed-tracing acceptance check: a
// traced solve forwarded through a non-owner comes back as one coherent span
// tree — the owner's remote phases grafted under the caller's cluster-forward
// span — and both sides retain the trace under the same ID, queryable from
// either node's /v1/traces.
func TestClusterTracePropagation(t *testing.T) {
	nodes := newTestCluster(t, 3)
	g, _ := graphOwnedBy(t, nodes, 0)
	owner, caller := nodes[0], nodes[1]

	resp, body, err := postJSONSolve(caller.url, solveRequest{
		Solver: "bandwidth", K: 900, Graph: graphJSONOf(t, g), Trace: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded traced solve: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cluster"); got != "forwarded "+owner.url {
		t.Fatalf("X-Cluster = %q, want forwarded to the owner", got)
	}
	var sres SolveResponse
	if err := json.Unmarshal(body, &sres); err != nil {
		t.Fatal(err)
	}
	if sres.Trace == nil || len(sres.TraceID) != 32 {
		t.Fatalf("traced response lacks trace identity: trace=%v traceId=%q", sres.Trace, sres.TraceID)
	}
	fwd := findSpan(sres.Trace, "cluster-forward")
	if fwd == nil {
		t.Fatalf("span tree has no cluster-forward span: %+v", sres.Trace)
	}
	if got := fwd.Attrs["peer"]; got != owner.url {
		t.Errorf("cluster-forward peer = %v, want %v", got, owner.url)
	}
	if len(fwd.Children) == 0 {
		t.Fatal("cluster-forward span has no grafted remote subtree")
	}
	remote := fwd.Children[0]
	if got := remote.Attrs["remote"]; got != true {
		t.Errorf("grafted root attrs = %v, want remote:true", remote.Attrs)
	}
	if findSpan(remote, "remote-solve") == nil {
		t.Errorf("grafted subtree has no remote-solve span: %+v", remote)
	}

	// Both sides retained the trace under the propagated ID.
	var fromCaller, fromOwner traceGetResponse
	getJSON(t, caller.url+"/v1/traces/"+sres.TraceID, &fromCaller)
	if !fromCaller.Forwarded || fromCaller.Peer != owner.url || fromCaller.Reason != "forwarded" {
		t.Errorf("caller record = %+v, want forwarded to the owner", fromCaller.Record)
	}
	getJSON(t, owner.url+"/v1/traces/"+sres.TraceID, &fromOwner)
	if !fromOwner.Remote || fromOwner.Reason != "remote" {
		t.Errorf("owner record = %+v, want remote", fromOwner.Record)
	}
	if fromOwner.ParentSpan == "" {
		t.Error("owner record has no parent span (trace identity was not adopted)")
	}
	if fromCaller.TraceID != fromOwner.TraceID {
		t.Errorf("trace IDs differ across nodes: %s vs %s", fromCaller.TraceID, fromOwner.TraceID)
	}
}

// TestClusterTraceHeaderSanitization: garbage in the internal trace header is
// ignored — the solve still answers 200, no trailer — while a well-formed
// header yields a span-tree trailer and a retained trace under exactly the
// propagated ID. External requests never get to inject trace identity at all.
func TestClusterTraceHeaderSanitization(t *testing.T) {
	nodes := newTestCluster(t, 3)
	node := nodes[0]
	const validTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	valid := validTrace + "-00f067aa0ba902b7-01"

	bad := []string{
		"garbage",
		"4bf92f3577b34da6a3ce929d0e0e4736", // trace ID only
		"4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",   // uppercase hex
		"zzf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // non-hex
		"4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // missing flags
		"00000000000000000000000000000000-0000000000000000-01",   // all-zero IDs
		"4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // trailing field
		strings.Repeat("a", 4096),
	}
	for i, hdr := range bad {
		frame, err := AppendSolveRequest(nil, SolveParams{Solver: "bandwidth", K: float64(1000 + i)}, testPath(t, 48, 9))
		if err != nil {
			t.Fatal(err)
		}
		resp, _ := postBinarySolve(t, node.url, frame, map[string]string{
			cluster.InternalHeader: "1",
			cluster.TraceHeader:    hdr,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("case %d (%.32q): status %d", i, hdr, resp.StatusCode)
		}
		if got := resp.Trailer.Get(cluster.SpansTrailer); got != "" {
			t.Errorf("case %d (%.32q): unexpected span trailer %q", i, hdr, got)
		}
	}

	// A well-formed header on an internal request produces the trailer and a
	// remote-retained trace under the propagated ID.
	frame, err := AppendSolveRequest(nil, SolveParams{Solver: "bandwidth", K: 2000}, testPath(t, 48, 9))
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := postBinarySolve(t, node.url, frame, map[string]string{
		cluster.InternalHeader: "1",
		cluster.TraceHeader:    valid,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid header: status %d", resp.StatusCode)
	}
	enc := resp.Trailer.Get(cluster.SpansTrailer)
	if enc == "" {
		t.Fatal("valid header: no span trailer")
	}
	spans, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		t.Fatalf("span trailer is not base64: %v", err)
	}
	var node0 obs.SpanNode
	if err := json.Unmarshal(spans, &node0); err != nil {
		t.Fatalf("span trailer is not a span tree: %v", err)
	}
	if node0.Name != "bandwidth" || findSpan(&node0, "remote-solve") == nil {
		t.Errorf("trailer tree = %+v, want the owner's bandwidth solve under remote-solve", node0)
	}
	var got traceGetResponse
	getJSON(t, node.url+"/v1/traces/"+validTrace, &got)
	if !got.Remote || got.ParentSpan != "00f067aa0ba902b7" {
		t.Errorf("retained record = %+v, want remote with the propagated parent span", got.Record)
	}

	// The same well-formed header from an external caller (no internal
	// marker) must not be honored: no trailer, no trace under that ID.
	frame, err = AppendSolveRequest(nil, SolveParams{Solver: "bandwidth", K: 3000}, testPath(t, 48, 9))
	if err != nil {
		t.Fatal(err)
	}
	ext := "aaaa2f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	resp, _ = postBinarySolve(t, node.url, frame, map[string]string{cluster.TraceHeader: ext})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("external request: status %d", resp.StatusCode)
	}
	if got := resp.Trailer.Get(cluster.SpansTrailer); got != "" {
		t.Errorf("external request got a span trailer %q", got)
	}
	gr, err := http.Get(node.url + "/v1/traces/" + strings.Split(ext, "-")[0])
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusNotFound {
		t.Errorf("externally injected trace ID was retained: status %d", gr.StatusCode)
	}
}

// FuzzSpansTrailer feeds the span-tree trailer graft arbitrary bytes, raw
// and base64-encoded: it never panics, and grafts at most one node, marked
// remote and attributed to the peer.
func FuzzSpansTrailer(f *testing.F) {
	for _, seed := range []string{
		`{"name":"solve bandwidth","startUs":3,"durationUs":40,"children":[{"name":"temps-dp"}]}`,
		`{"name":"x","attrs":{"remote":false,"peer":7}}`,
		`{"name":""}`, `null`, `[]`, `{"name":`, "",
	} {
		f.Add([]byte(seed), true)
		f.Add([]byte(seed), false)
	}
	const peer = "http://10.0.0.2:8080"
	f.Fuzz(func(t *testing.T, b []byte, encode bool) {
		trailer := string(b)
		if encode {
			trailer = base64.StdEncoding.EncodeToString(b)
		}
		tr := obs.New("root")
		_, sp := obs.StartSpan(obs.NewContext(context.Background(), tr), "cluster-forward")
		graftSpans(sp, trailer, peer)
		sp.End()
		tr.Finish()
		fwd := tr.Tree().Children[0]
		if len(fwd.Children) > 1 {
			t.Fatalf("grafted %d nodes, want at most 1", len(fwd.Children))
		}
		if len(fwd.Children) == 1 {
			if a := fwd.Children[0].Attrs; a["remote"] != true || a["peer"] != peer {
				t.Fatalf("grafted node attrs = %v, want remote and peer set", a)
			}
		}
	})
}
