package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/workload"
)

// rewindBody is a request body that rereads one byte slice, so a benchmark
// can post the same body through one request without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// jsonSolveBody marshals a solve request over g with K at 4× its largest
// task.
func jsonSolveBody(tb testing.TB, solver string, g any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := graph.WriteJSON(&buf, g); err != nil {
		tb.Fatal(err)
	}
	var maxW float64
	switch g := g.(type) {
	case *graph.Path:
		maxW = g.MaxNodeWeight()
	case *graph.Tree:
		maxW = g.MaxNodeWeight()
	}
	body, err := json.Marshal(solveRequest{Solver: solver, K: 4 * maxW, Graph: buf.Bytes()})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodeBench5k returns the 5k-node path and tree solve bodies of the JSON
// decode benchmark and alloc gate.
func decodeBench5k(tb testing.TB) (path, tree []byte) {
	r := workload.NewRNG(11)
	p := workload.RandomPath(r, 5000, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	tr := workload.RandomTree(r, 5000, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	return jsonSolveBody(tb, "bandwidth", p), jsonSolveBody(tb, "bottleneck", tr)
}

// decodeLoop returns a function that decodes body through decodeSolve, as
// /v1/solve does, reusing one request. A PSV1 body is posted under the
// binary media type.
func decodeLoop(tb testing.TB, s *Server, body []byte) func() {
	rb := &rewindBody{}
	req := httptest.NewRequest("POST", "/v1/solve", nil)
	req.Body = rb
	if bytes.HasPrefix(body, solveReqMagic) {
		req.Header.Set("Content-Type", codec.ContentType)
	}
	return func() {
		rb.Reset(body)
		if _, _, err := s.decodeSolve(req); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkDecodeSolveJSON measures the JSON request decode of /v1/solve —
// body read, envelope and graph decode, fingerprint — on a 5k-node path and
// a 5k-node tree. The stored case decodes one body, whose envelope the
// graph store answers by its text key after the first decode, so it parses
// no numbers; the fresh case changes one weight every iteration, so each
// decode misses the text key, parses, and builds and checks the graph.
func BenchmarkDecodeSolveJSON(b *testing.B) {
	path, tree := decodeBench5k(b)
	for _, c := range []struct {
		name string
		body []byte
	}{{"path5k", path}, {"tree5k", tree}} {
		for _, fresh := range []bool{false, true} {
			b.Run(c.name+"/"+storedOrFresh(fresh), func(b *testing.B) {
				s := benchServer(b, Config{})
				defer benchShutdownJobs(b, s)
				body, next := freshGraphs(b, c.body)
				decode := decodeLoop(b, s, body)
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if fresh {
						next(i)
					}
					decode()
				}
			})
		}
	}
}

// TestJSONSolveDecodeAllocBudget gates the allocations of decoding the
// 5k-node path body: the graph's arrays and headers, not one per number.
func TestJSONSolveDecodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats the pooled body buffer and decode scratch")
	}
	path, _ := decodeBench5k(t)
	s := newTestServer(t, Config{CacheSize: -1}) // no graph store: every decode builds the graph
	decode := decodeLoop(t, s, path)
	decode() // warm the body buffer and decode scratch
	const budget = 16
	if avg := testing.AllocsPerRun(50, decode); avg > budget {
		t.Fatalf("JSON decode of a 5k-node path allocates %.1f/op, budget %d", avg, budget)
	}
}

// TestJSONNodeLimitStopsEarly sends a path far over MaxNodes: it answers
// 413, and the decoder stops at the limit instead of materialising the
// graph.
func TestJSONNodeLimitStopsEarly(t *testing.T) {
	const limit = 16
	s := newTestServer(t, Config{MaxNodes: limit})
	r := workload.NewRNG(5)
	p := workload.RandomPath(r, 100000, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	body := jsonSolveBody(t, "bandwidth", p)
	for _, route := range []string{"/v1/solve", "/v1/jobs"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", route, bytes.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversize JSON path = %d, want 413 (%s)", route, rec.Code, rec.Body)
		}
	}
	batch := []byte(`{"requests":[` + string(body) + `]}`)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(batch)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("/v1/batch: oversize JSON path = %d, want 413 (%s)", rec.Code, rec.Body)
	}

	// A full decode holds 1.6 MB of weights; stopping at the limit holds a
	// few hundred bytes.
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := s.parseSolveJSON(body); !errors.Is(err, errNodeLimit) {
			t.Fatalf("parseSolveJSON: %v, want errNodeLimit", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16<<10 {
		t.Fatalf("oversize decode allocated %d bytes/op, want under 16 KiB", per)
	}
}

// TestJSONBatchRepeatedRequestsKey pins encoding/json's treatment of a
// repeated "requests" key, which decodes each item over the earlier one.
func TestJSONBatchRepeatedRequestsKey(t *testing.T) {
	s := newTestServer(t, Config{})
	g := string(pathGraphJSON(t, 8, 1))
	body := `{"requests":[{"solver":"bandwidth","k":300,"graph":` + g + `},{"solver":"x"}],"requests":[{"k":400},null,{}]}`
	checkBatchAgainstReference(t, s, []byte(body))
	items, _, err := s.parseBatchJSON([]byte(body))
	if err != nil || len(items) != 3 {
		t.Fatalf("parseBatchJSON: %d items, %v", len(items), err)
	}
	if it := items[0]; it.req.Solver != "bandwidth" || it.req.K != 400 || !it.hasGraph {
		t.Errorf("item 0 = %+v, want the first array's solver and graph with the second's k", it.req)
	}
	if it := items[1]; it.req.Solver != "x" {
		t.Errorf("item 1 = %+v, want the first array's item kept by null", it.req)
	}
}

// refGraph decodes a graph's raw bytes with json.Unmarshal alone.
func refGraph(raw []byte) (any, error) {
	var env struct {
		Kind        string    `json:"kind"`
		NodeWeights []float64 `json:"nodeWeights"`
		EdgeWeights []float64 `json:"edgeWeights"`
		Edges       []struct {
			U int     `json:"u"`
			V int     `json:"v"`
			W float64 `json:"w"`
		} `json:"edges"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, len(env.Edges))
	for i, e := range env.Edges {
		edges[i] = graph.Edge{U: e.U, V: e.V, W: e.W}
	}
	switch env.Kind {
	case "path":
		return graph.NewPath(env.NodeWeights, env.EdgeWeights)
	case "tree":
		return graph.NewTree(env.NodeWeights, edges)
	case "graph":
		return graph.NewGraph(env.NodeWeights, edges)
	}
	return nil, fmt.Errorf("unknown graph kind %q", env.Kind)
}

// refItem validates one solve request decoded by json.Unmarshal, as the
// server did before the one-pass decoder (a null graph is missing, as it is
// now).
func refItem(req solveRequest) (parsedSolve, error) {
	params := SolveParams{Solver: req.Solver, K: req.K, MaxComponents: req.MaxComponents,
		TimeoutMs: req.TimeoutMs, NoCache: req.NoCache, Verify: req.Verify, Trace: req.Trace}
	if err := checkSolveParams(params); err != nil {
		return parsedSolve{}, err
	}
	if len(req.Graph) == 0 || string(req.Graph) == "null" {
		return parsedSolve{}, errors.New(`"graph" is required`)
	}
	g, err := refGraph(req.Graph)
	if err != nil {
		return parsedSolve{}, fmt.Errorf("bad graph: %v", err)
	}
	switch g.(type) {
	case *graph.Path, *graph.Tree:
	default:
		return parsedSolve{}, fmt.Errorf("graph kind %T is not solvable", g)
	}
	fp, err := graph.Fingerprint(g)
	return parsedSolve{req: params, g: g, fp: fp}, err
}

// sameParsed reports how two decoded solves differ, or "" when their
// parameters, fingerprints and graph arrays are bit-identical.
func sameParsed(a, b parsedSolve) string {
	ar, br := a.req, b.req
	switch {
	case ar.Solver != br.Solver, math.Float64bits(ar.K) != math.Float64bits(br.K),
		ar.MaxComponents != br.MaxComponents, ar.TimeoutMs != br.TimeoutMs,
		ar.NoCache != br.NoCache, ar.Verify != br.Verify, ar.Trace != br.Trace:
		return fmt.Sprintf("params %+v vs %+v", ar, br)
	case a.fp != b.fp:
		return fmt.Sprintf("fingerprint %016x vs %016x", a.fp, b.fp)
	}
	var an, bn, aw, bw []float64
	var ae, be []graph.Edge
	switch g := a.g.(type) {
	case *graph.Path:
		an, aw = g.NodeW, g.EdgeW
	case *graph.Tree:
		an, ae = g.NodeW, g.Edges
	}
	switch g := b.g.(type) {
	case *graph.Path:
		bn, bw = g.NodeW, g.EdgeW
	case *graph.Tree:
		bn, be = g.NodeW, g.Edges
	}
	bits := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if fmt.Sprintf("%T", a.g) != fmt.Sprintf("%T", b.g) || !bits(an, bn) || !bits(aw, bw) || len(ae) != len(be) {
		return fmt.Sprintf("graph %T vs %T", a.g, b.g)
	}
	for i := range ae {
		if ae[i].U != be[i].U || ae[i].V != be[i].V || math.Float64bits(ae[i].W) != math.Float64bits(be[i].W) {
			return fmt.Sprintf("edge %d: %+v vs %+v", i, ae[i], be[i])
		}
	}
	return ""
}

// sameOutcome fails t unless the decoder and the reference agree: both
// reject with the same status class, or both accept bit-identical values.
func sameOutcome(t *testing.T, what string, got, want parsedSolve, gerr, werr error) {
	t.Helper()
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("%s: decoder error %v, encoding/json error %v", what, gerr, werr)
	case gerr != nil && requestErrStatus(gerr) != requestErrStatus(werr):
		t.Fatalf("%s: decoder status %d (%v), encoding/json status %d (%v)",
			what, requestErrStatus(gerr), gerr, requestErrStatus(werr), werr)
	case gerr == nil:
		if d := sameParsed(got, want); d != "" {
			t.Fatalf("%s: %s", what, d)
		}
	}
}

// checkSolveAgainstReference compares parseSolveJSON with json.Unmarshal
// into jobSubmitRequest.
func checkSolveAgainstReference(t *testing.T, s *Server, body []byte) {
	t.Helper()
	got, gprio, gerr := s.parseSolveJSON(body)
	var req jobSubmitRequest
	var want parsedSolve
	werr := json.Unmarshal(body, &req)
	if werr == nil {
		want, werr = refItem(req.solveRequest)
	}
	sameOutcome(t, fmt.Sprintf("solve %q", body), got, want, gerr, werr)
	if gerr == nil && gprio != req.Priority {
		t.Fatalf("solve %q: priority %d, encoding/json %d", body, gprio, req.Priority)
	}
}

// checkBatchAgainstReference compares parseBatchJSON and per-item
// validation with json.Unmarshal into batchRequest.
func checkBatchAgainstReference(t *testing.T, s *Server, body []byte) {
	t.Helper()
	items, gtms, gerr := s.parseBatchJSON(body)
	var breq batchRequest
	werr := json.Unmarshal(body, &breq)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("batch %q: decoder error %v, encoding/json error %v", body, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if len(items) != len(breq.Requests) || gtms != breq.TimeoutMs {
		t.Fatalf("batch %q: %d items timeout %d, encoding/json %d items timeout %d",
			body, len(items), gtms, len(breq.Requests), breq.TimeoutMs)
	}
	for i := range items {
		got, ierr := validateItem(&items[i])
		want, rerr := refItem(breq.Requests[i])
		sameOutcome(t, fmt.Sprintf("batch %q item %d", body, i), got, want, ierr, rerr)
	}
}

// jsonRequestEdgeCases are solve bodies at the edges of encoding/json's
// rules, seeding FuzzDecodeSolveJSON.
func jsonRequestEdgeCases() []string {
	g := `{"kind":"path","nodeWeights":[1,2,3],"edgeWeights":[4,5]}`
	tr := `{"kind":"tree","nodeWeights":[1,2,3],"edges":[{"u":0,"v":1,"w":5},{"u":1,"v":2,"w":6}]}`
	return []string{
		`{"solver":"bandwidth","k":10,"graph":` + g + `}`,
		`{"Solver":"bandwidth","K":10,"Graph":` + g + `}`,
		`{"SOLVER":"bandwidth","K":10,"graph":` + g + `}`,
		`{"solver":"bandwidth","k":10,"graph":` + g + `}`,
		`{"solver":"bottleneck","k":20,"graph":` + tr + `,"verify":true,"noCache":true,"trace":false}`,
		`{"solver":"bandwidth","k":10,"graph":` + g + `,"maxComponents":2,"timeoutMs":50,"priority":3}`,
		`{"solver":null,"k":null,"graph":null}`,
		`{"solver":"bandwidth","k":10,"graph":null}`,
		`{"solver":"bandwidth","k":10,"graph":` + g + `,"graph":null}`,
		`{"solver":"bandwidth","k":10,"graph":{"kind":"path","nodeWeights":"x"},"graph":` + g + `}`,
		`{"solver":"bandwidth","k":10,"graph":` + g + `,"graph":{"kind":"tree"}}`,
		`{"solver":"nope","solver":"bandwidth","k":1,"k":10,"graph":` + g + `}`,
		`{"solver":"bandwidth","k":10,"graph":` + g + `,"maxComponents":null,"verify":null}`,
		`{"x":{"y":[1,{"z":null}],"w":"𝄞"},"solver":"bandwidth","k":10,"graph":` + g + `}`,
		`{"solver":"bandwidth","k":1e400,"graph":` + g + `}`,
		`{"solver":"bandwidth","k":-0,"graph":` + g + `}`,
		`{"solver":"bandwidth","k":01,"graph":` + g + `}`,
		`{"solver":"bandwidth","k":NaN,"graph":` + g + `}`,
		`{"solver":"bandwidth","k":Infinity,"graph":` + g + `}`,
		`{"solver":"bandwidth","k":0x1p3,"graph":` + g + `}`,
		`{"solver":"bandwidth","k":10,"maxComponents":1.0,"graph":` + g + `}`,
		`{"solver":"bandwidth","k":10,"timeoutMs":1e2,"graph":` + g + `}`,
		`{"solver":"bandwidth","k":10,"priority":1.5,"graph":` + g + `}`,
		`{"solver":"bandwidth","k":10,"graph":{"kind":"tree","nodeWeights":[1,2],"edges":[{"u":1.0,"v":0,"w":1}]}}`,
		`{"solver":"bandwidth","k":10,"graph":` + g + `}garbage`,
		`{"solver":"bandwidth","k":10,"graph":` + g + "}\n",
		`{"solver":"bandwidth","k":"10","graph":` + g + `}`,
		`{"solver":5,"k":10,"graph":` + g + `}`,
		`{"solver":"bandwidth","k":10,"verify":"true","graph":` + g + `}`,
		`{"solver":"bandwidth","k":10,"graph":{"kind":"graph","nodeWeights":[1,1],"edges":[{"u":0,"v":1,"w":1}]}}`,
		`{"solver":"bandwidth","k":10,"graph":5}`,
		`null`,
		`[]`,
		`{`,
		``,
	}
}

// jsonEnvelopeEdgeCases are solve bodies whose graph envelopes test the
// text key: strings holding brackets, quotes and backslashes, unknown
// nested values, whitespace, repeated keys, bytes after the envelope and
// truncation. Several share an envelope's text with another, so that a
// graph store fed them in order answers those of 64 bytes or more by text
// key.
func jsonEnvelopeEdgeCases() []string {
	g := `{"kind":"path","nodeWeights":[1,2,3],"edgeWeights":[4,5]}`
	tr := `{"kind":"tree","nodeWeights":[1,2,3],"edges":[{"u":0,"v":1,"w":5},{"u":1,"v":2,"w":6}]}`
	solve := func(graph string) string { return `{"solver":"bandwidth","k":10,"graph":` + graph + `}` }
	return []string{
		solve(`{"kind":"path]","nodeWeights":[1,2,3],"edgeWeights":[4,5]}`),
		solve(`{"kind":"pa}th","nodeWeights":[1,2,3],"edgeWeights":[4,5]}`),
		solve(`{"kind":"path\"","nodeWeights":[1,2,3],"edgeWeights":[4,5]}`),
		solve(`{"kind":"p\u0061th","nodeWeights":[1,2,3],"edgeWeights":[4,5]}`),
		solve(`{"kind":"path","x":"]}\"\\","nodeWeights":[1,2,3],"edgeWeights":[4,5]}`),
		solve(`{"kind":"path","x":"\\\"}","nodeWeights":[1,2,3],"edgeWeights":[4,5]}`),
		solve(`{"kind":"path","x\"]":"}","nodeWeights":[1,2,3],"edgeWeights":[4,5]}`),
		solve(`{"kind":"tree","nodeWeights":[1,2,3],"edges":[{"u":0,"v":1,"w":5,"note":"}]"},{"u":1,"v":2,"w":6}]}`),
		solve(`{"kind":"path","meta":{"a":[1,{"b":"}"}],"c":{},"d":[[],[{}]]},"nodeWeights":[1,2,3],"edgeWeights":[4,5]}`),
		solve(`{"kind":"tree","nodeWeights":[1,2,3],"edges":[{"u":0,"v":1,"w":5,"x":[{"y":[]}]},{"u":1,"v":2,"w":6}]}`),
		solve(" {\n\t\"kind\" : \"path\" ,\r\n \"nodeWeights\" : [ 1 , 2 , 3 ] , \"edgeWeights\" : [4,5] } "),
		solve(`{ "kind":"path","nodeWeights":[1,2,3],"edgeWeights":[4,5]}`),
		solve(`{"kind":"tree","kind":"path","nodeWeights":[9,9],"nodeWeights":[1,2,3],"edgeWeights":[4,5]}`),
		solve(`{"kind":"path","nodeWeights":[1,2,3,4],"nodeWeights":[1,2,3],"edgeWeights":[4,5]}`),
		solve(`{"kind":"tree","nodeWeights":[1,2,3],"edges":[{"u":0,"v":1,"w":5,"w":7},{"u":1,"v":2,"w":6}]}`),
		solve(g),
		solve(g) + `x`,
		solve(g + `]`),
		solve(g + g),
		solve(g + `,"k":11`),
		`{"solver":"bandwidth","k":10,"graph":` + g + `   `,
		solve(tr),
		solve(tr + `}`),
		`{"solver":"bandwidth","k":10,"graph":` + tr[:len(tr)-1],
		`{"solver":"bandwidth","k":10,"graph":` + tr[:len(tr)-1] + `]}`,
		`{"solver":"bandwidth","k":10,"graph":` + g[:20],
		solve(`{"kind":"path","nodeWeights":[1,2,3],"edgeWeights":[4,5],"x":"}`),
		solve(`{"kind":"path","nodeWeights":[1,-0,3],"edgeWeights":[4,5]}`),
		solve(`{"kind":"path","nodeWeights":[1,0,3],"edgeWeights":[4,5]}`),
	}
}

// FuzzDecodeSolveJSON holds the one-pass request decoder to a reference
// built on json.Unmarshal alone, for a solve or job body and for the same
// body as the single item of a batch: the same accept/reject outcome with
// the same status class, and bit-identical decoded values. The server runs
// without a node limit, the one place the decoder stops early by design.
func FuzzDecodeSolveJSON(f *testing.F) {
	p, tr := goldenGraphs(f)
	for _, c := range goldenCases(p, tr) {
		body, err := json.Marshal(jobSubmitRequest{solveRequest: c.jsonRequest(f, p, tr), Priority: 2})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, c := range append(jsonRequestEdgeCases(), jsonEnvelopeEdgeCases()...) {
		f.Add([]byte(c))
	}
	// s decodes every graph afresh, as the reference does; stored keeps a
	// graph store, whose hits checkStoredDecode holds to s's decodes.
	s := New(Config{Logger: quietLogger(), MaxNodes: -1, CacheSize: -1})
	stored := New(Config{Logger: quietLogger(), MaxNodes: -1})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.jobs.Shutdown(ctx)
		stored.jobs.Shutdown(ctx)
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSolveAgainstReference(t, s, body)
		checkBatchAgainstReference(t, s, []byte(`{"requests":[`+string(body)+`],"timeoutMs":7}`))
		checkStoredDecode(t, s, stored, body)
	})
}

// checkStoredDecode compares the decodes of a server that keeps a graph
// store with that of one that does not: the same error, or the same values
// with graphs equal up to the sign of zero weights, since a stored graph
// answers for its ±0 twins as its cached results do. The stored server
// decodes body twice, so that the second decode finds a graph the first
// stored by its envelope's text key.
func checkStoredDecode(t *testing.T, fresh, stored *Server, body []byte) {
	t.Helper()
	want, _, werr := fresh.parseSolveJSON(body)
	want.g = positiveZeros(want.g)
	for pass := 1; pass <= 2; pass++ {
		got, _, gerr := stored.parseSolveJSON(body)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("solve %q, decode %d: with the graph store error %v, without %v", body, pass, gerr, werr)
		}
		if gerr == nil {
			got.g = positiveZeros(got.g)
			if d := sameParsed(got, want); d != "" {
				t.Fatalf("solve %q, decode %d: with and without the graph store: %s", body, pass, d)
			}
		}
	}
}

// positiveZeros is a copy of a path or tree with every zero weight +0.
func positiveZeros(g any) any {
	fix := func(ws []float64) {
		for i := range ws {
			ws[i] += 0 // -0 + 0 is +0; every other weight is unchanged
		}
	}
	switch g := g.(type) {
	case *graph.Path:
		c := g.Clone()
		fix(c.NodeW)
		fix(c.EdgeW)
		return c
	case *graph.Tree:
		c := g.Clone()
		fix(c.NodeW)
		for i := range c.Edges {
			c.Edges[i].W += 0
		}
		return c
	}
	return g
}
