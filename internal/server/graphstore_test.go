package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/workload"
)

// frozen reports whether g is a frozen path or tree.
func frozen(g any) bool {
	f, ok := g.(interface{ Frozen() bool })
	return ok && f.Frozen()
}

// TestGraphStoreSharesDecodedGraphs: the JSON and PSV1 encodings of one
// graph decode to the same frozen object, whichever came first, and the
// repeated JSON body finds it by its text key; a graph that differs in one
// weight gets its own entry, and one that differs only in the sign of a
// zero weight shares the entry, as it shares result-cache entries.
func TestGraphStoreSharesDecodedGraphs(t *testing.T) {
	s := newTestServer(t, Config{})
	r := workload.NewRNG(41)
	w := workload.UniformWeights(1, 100)
	p := workload.RandomPath(r, 300, w, w)
	tr := workload.RandomTree(r, 300, w, w)
	p.NodeW[7], tr.NodeW[7] = 0, 0
	stored := 0
	for _, c := range []struct {
		solver string
		g      any
		bump   func(delta float64) any // a copy with node weight 3 changed
	}{
		{"bandwidth", p, func(d float64) any { q := p.Clone(); q.NodeW[3] += d; return q }},
		{"bottleneck", tr, func(d float64) any { q := tr.Clone(); q.NodeW[3] += d; return q }},
	} {
		jsonBody, frame := weightSolveBodies(t, c.solver, c.g)
		jp, _, err := s.parseSolveJSON(jsonBody)
		if err != nil {
			t.Fatal(err)
		}
		bp, _, err := s.parseBinarySolve(frame)
		if err != nil {
			t.Fatal(err)
		}
		jp2, _, err := s.parseSolveJSON(jsonBody)
		if err != nil {
			t.Fatal(err)
		}
		if jp.g != bp.g || jp2.g != bp.g || !frozen(jp.g) {
			t.Fatalf("%T: JSON, PSV1 and JSON decode to %p, %p and %p (frozen %t), want one frozen graph", c.g, jp.g, bp.g, jp2.g, frozen(jp.g))
		}
		other := c.bump(0.5)
		op, _, err := s.parseBinarySolve(mustSolveFrame(t, SolveParams{Solver: c.solver, K: 1000}, other))
		if err != nil {
			t.Fatal(err)
		}
		if op.g == jp.g || op.fp == jp.fp || !frozen(op.g) {
			t.Fatalf("%T with one weight changed shares the stored graph (fingerprints %016x, %016x)", c.g, op.fp, jp.fp)
		}
		stored += 2
		negZero := c.bump(0)
		switch g := negZero.(type) {
		case *graph.Path:
			g.NodeW[7] = math.Copysign(0, -1)
		case *graph.Tree:
			g.NodeW[7] = math.Copysign(0, -1)
		}
		zp, _, err := s.parseBinarySolve(mustSolveFrame(t, SolveParams{Solver: c.solver, K: 1000}, negZero))
		if err != nil {
			t.Fatal(err)
		}
		if zp.g != jp.g {
			t.Fatalf("%T with -0 for +0 decodes to its own graph", c.g)
		}
	}
	if st := s.graphs.stats(); st.Hits != 4 || st.Misses != 4 || st.TextHits != 2 || s.graphs.lru.stats().Entries != stored {
		t.Fatalf("store stats %+v, %d entries; want 4 hits, 4 misses, 2 text hits, %d entries", st, s.graphs.lru.stats().Entries, stored)
	}
}

// TestFrozenTreeCloneWritable: the stored tree's Clone is unfrozen, checked
// and writable, and writing to it leaves the stored tree as it was.
func TestFrozenTreeCloneWritable(t *testing.T) {
	s := newTestServer(t, Config{})
	tr := workload.RandomTree(workload.NewRNG(43), 200, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	want := tr.NodeW[0]
	ps, _, err := s.parseBinarySolve(mustSolveFrame(t, SolveParams{Solver: "bottleneck", K: 1000}, tr))
	if err != nil {
		t.Fatal(err)
	}
	st := ps.g.(*graph.Tree)
	c := st.Clone()
	if !st.Frozen() || c.Frozen() {
		t.Fatalf("stored tree frozen %t, its clone frozen %t; want true, false", st.Frozen(), c.Frozen())
	}
	c.NodeW[0] = -1
	if c.Validate() == nil {
		t.Fatal("the clone's Validate accepted a negative weight")
	}
	if st.NodeW[0] != want || st.Validate() != nil {
		t.Fatalf("writing the clone changed the stored tree: NodeW[0] = %v, want %v", st.NodeW[0], want)
	}
}

// TestGraphStoreOff: with the result cache off the store is off too, and
// every decode builds its own unfrozen graph.
func TestGraphStoreOff(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: -1})
	frame := mustSolveFrame(t, SolveParams{Solver: "bandwidth", K: 1000}, testPath(t, 100, 3))
	a, _, err := s.parseBinarySolve(frame)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.parseBinarySolve(frame)
	if err != nil {
		t.Fatal(err)
	}
	if a.g == b.g || frozen(a.g) || s.graphs != nil {
		t.Fatalf("store off: decodes share %t, frozen %t", a.g == b.g, frozen(a.g))
	}
}

// storeTreeItems are eight verified requests over one 5k-node tree, two
// bounds for each of the four tree solvers, none cached, so that every one
// solves and certifies on the shared graph.
func storeTreeItems() (*graph.Tree, []SolveParams) {
	w := workload.UniformWeights(1, 100)
	tr := workload.RandomTree(workload.NewRNG(37), 5000, w, w)
	wmax := tr.MaxNodeWeight()
	var items []SolveParams
	for _, solver := range []string{"bottleneck", "minproc", "partition-tree"} {
		for _, f := range []float64{5, 20} {
			items = append(items, SolveParams{Solver: solver, K: f * wmax, Verify: true, NoCache: true})
		}
	}
	for _, parts := range []float64{8, 32} {
		items = append(items, SolveParams{Solver: "maxmin-tree", K: parts, Verify: true, NoCache: true})
	}
	return tr, items
}

// TestGraphStoreConcurrentTreeSolves sends a /v1/batch of the eight
// storeTreeItems alongside four clients that post the same items to
// /v1/solve, in JSON and PSV1, all over the one stored tree, and pins every
// answer (timings masked) to testdata/graph_store_answers.txt, which holds
// the answers of a daemon that decodes, checks and roots the tree anew for
// every request. It runs in CI's -race steps.
func TestGraphStoreConcurrentTreeSolves(t *testing.T) {
	tr, items := storeTreeItems()
	s := newTestServer(t, Config{})
	h := s.Handler()
	frames := make([][]byte, len(items))
	bodies := make([][]byte, len(items))
	for i, it := range items {
		frames[i] = mustSolveFrame(t, it, tr)
		bodies[i] = jsonSolveParams(t, it, tr)
	}
	// Store the tree before the clients start.
	if ps, _, err := s.parseBinarySolve(frames[0]); err != nil || !frozen(ps.g) {
		t.Fatalf("storing the tree: %v (frozen %t)", err, frozen(ps.g))
	}
	batch, err := AppendBatchRequest(nil, 0, items, repeat[any](tr, len(items)))
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	var (
		mu      sync.Mutex
		binAns  = make([][][]byte, len(items))
		jsonAns = make([][]string, len(items))
		wg      sync.WaitGroup
	)
	record := func(i int, frame []byte, body []byte) {
		mu.Lock()
		defer mu.Unlock()
		if frame != nil {
			binAns[i] = append(binAns[i], frame)
		} else {
			jsonAns[i] = append(jsonAns[i], maskJSON(body))
		}
	}
	wg.Add(1 + clients)
	go func() {
		defer wg.Done()
		rec := doBin(h, "/v1/batch", batch, codec.ContentType)
		if rec.Code != http.StatusOK {
			t.Errorf("batch = %d: %s", rec.Code, rec.Body)
			return
		}
		br, err := DecodeBatchResult(rec.Body.Bytes())
		if err != nil {
			t.Error(err)
			return
		}
		for i, it := range br.Items {
			if it.Result == nil {
				t.Errorf("batch item %d: %s", i, it.Error)
				continue
			}
			it.Result.DurationMs = 0
			record(i, appendSolveFrame(nil, it.Result), nil)
		}
	}()
	for c := range clients {
		go func() {
			defer wg.Done()
			for i := range items {
				useJSON := (c+i)%2 == 0
				var rec *httptest.ResponseRecorder
				if useJSON {
					rec = doJSONRaw(h, "POST", "/v1/solve", json.RawMessage(bodies[i]))
				} else {
					rec = doBin(h, "/v1/solve", frames[i], codec.ContentType)
				}
				switch {
				case rec.Code != http.StatusOK:
					t.Errorf("client %d item %d = %d: %s", c, i, rec.Code, rec.Body)
				case useJSON:
					record(i, nil, rec.Body.Bytes())
				default:
					b := bytes.Clone(rec.Body.Bytes())
					maskSolveFrame(t, b)
					record(i, b, nil)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var out bytes.Buffer
	for i, it := range items {
		for _, a := range binAns[i][1:] {
			if !bytes.Equal(a, binAns[i][0]) {
				t.Errorf("item %d: binary answers differ", i)
			}
		}
		for _, a := range jsonAns[i][1:] {
			if a != jsonAns[i][0] {
				t.Errorf("item %d: JSON answers differ", i)
			}
		}
		fmt.Fprintf(&out, "%s k=%s prs1 %x json %x\n", it.Solver, strconv.FormatFloat(it.K, 'g', -1, 64),
			sha256.Sum256(binAns[i][0]), sha256.Sum256([]byte(jsonAns[i][0])))
	}
	checkGolden(t, "graph_store_answers.txt", out.String())
}

// jsonSolveParams is the JSON /v1/solve body of params over g.
func jsonSolveParams(t *testing.T, params SolveParams, g any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"solver":%q,"k":%s,"verify":%t,"noCache":%t,"graph":%s}`,
		params.Solver, strconv.FormatFloat(params.K, 'g', -1, 64), params.Verify, params.NoCache, bytes.TrimSpace(buf.Bytes()))
	return []byte(body)
}

// repeat returns n copies of v.
func repeat[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// graphStoreMetricRe matches the graph store's samples on /metrics.
var graphStoreMetricRe = regexp.MustCompile(`(?m)^partitiond_graph_store_(total\{result="(?:hit|miss|text)"\}|bytes) (\d+)$`)

// TestGraphStoreMetrics: a JSON miss, a PSV1 hit and a repeat of the JSON
// body on one tree show on /metrics as one miss, one hit, one text hit, and
// the tree's footprint in bytes.
func TestGraphStoreMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	tr := workload.RandomTree(workload.NewRNG(47), 500, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	params := SolveParams{Solver: "bottleneck", K: 5 * tr.MaxNodeWeight()}
	if rec := doJSONRaw(s.Handler(), "POST", "/v1/solve", json.RawMessage(jsonSolveParams(t, params, tr))); rec.Code != http.StatusOK {
		t.Fatalf("JSON solve = %d: %s", rec.Code, rec.Body)
	}
	if rec := doBin(s.Handler(), "/v1/solve", mustSolveFrame(t, params, tr), ""); rec.Code != http.StatusOK {
		t.Fatalf("binary solve = %d: %s", rec.Code, rec.Body)
	}
	if rec := doJSONRaw(s.Handler(), "POST", "/v1/solve", json.RawMessage(jsonSolveParams(t, params, tr))); rec.Code != http.StatusOK {
		t.Fatalf("repeated JSON solve = %d: %s", rec.Code, rec.Body)
	}
	got := map[string]string{}
	for _, m := range graphStoreMetricRe.FindAllStringSubmatch(getMetricsText(t, s), -1) {
		got[m[1]] = m[2]
	}
	want := map[string]string{
		`total{result="hit"}`:  "1",
		`total{result="miss"}`: "1",
		`total{result="text"}`: "1",
		"bytes":                strconv.Itoa(tr.Footprint()),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("graph store metrics %v, want %v", got, want)
	}
}

// getMetricsText scrapes s's /metrics.
func getMetricsText(t *testing.T, s *Server) string {
	t.Helper()
	rec := doJSON(t, s.Handler(), "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// TestStoredGraphDecodeAllocBudget gates decodes whose graph the store
// holds, a 5k-node tree and a 10k-node path: a PSV1 body, and a JSON body
// through parseSolveJSON that its envelope's text key answers. Neither
// makes a graph-sized allocation.
func TestStoredGraphDecodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats the pooled body buffer")
	}
	// One P from the start: sync.Pool drops what it holds when GOMAXPROCS
	// changes, which would cost the pooled body buffer.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newTestServer(t, Config{})
	w := workload.UniformWeights(1, 100)
	tr := workload.RandomTree(workload.NewRNG(53), 5000, w, w)
	p := testPath(t, 10000, 59)
	treeParams := SolveParams{Solver: "minproc", K: 10 * tr.MaxNodeWeight()}
	pathParams := SolveParams{Solver: "bandwidth", K: 500}
	jsonDecode := func(name string, body []byte) func() {
		return func() {
			if ps, _, err := s.parseSolveJSON(body); err != nil || !frozen(ps.g) {
				t.Fatalf("%s: not stored (%v)", name, err)
			}
		}
	}
	for _, c := range []struct {
		name   string
		decode func()
		text   bool // answered by the text key
	}{
		{"PSV1 5k-node tree", decodeLoop(t, s, mustSolveFrame(t, treeParams, tr)), false},
		{"PSV1 10k-node path", decodeLoop(t, s, mustSolveFrame(t, pathParams, p)), false},
		{"JSON 5k-node tree", jsonDecode("JSON 5k-node tree", jsonSolveParams(t, treeParams, tr)), true},
		{"JSON 10k-node path", jsonDecode("JSON 10k-node path", jsonSolveParams(t, pathParams, p)), true},
	} {
		c.decode() // stores the graph (or its text key) and warms the body buffer
		stats := s.graphs.stats()
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			c.decode()
		}
		runtime.ReadMemStats(&after)
		hits := s.graphs.stats().Hits - stats.Hits
		if c.text {
			hits = s.graphs.stats().TextHits - stats.TextHits
		}
		if hits != runs {
			t.Fatalf("%s: %d of %d decodes found the stored graph (text key %t)", c.name, hits, runs, c.text)
		}
		const budget = 1024
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		if per > budget {
			t.Errorf("stored %s: decode allocates %d B/op, budget %d", c.name, per, budget)
		}
		t.Logf("stored %s: %d B/op", c.name, per)
	}
}
