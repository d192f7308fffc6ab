package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/workload"
)

// testPath builds a deterministic random path for wire tests.
func testPath(t *testing.T, n int, seed uint64) *graph.Path {
	t.Helper()
	r := workload.NewRNG(seed)
	return workload.RandomPath(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
}

// doBin posts a binary body with the given Accept header.
func doBin(h http.Handler, path string, body []byte, accept string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", codec.ContentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func mustSolveFrame(t *testing.T, params SolveParams, g any) []byte {
	t.Helper()
	b, err := AppendSolveRequest(nil, params, g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBinarySolveRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	p := testPath(t, 64, 7)
	k := 4 * p.MaxNodeWeight()

	// Solve the same graph over JSON first, as the reference answer.
	jrec := doJSON(t, s.Handler(), "POST", "/v1/solve", solveRequest{
		Solver: "bandwidth", K: k, Graph: pathGraphJSON(t, 64, 7),
	})
	if jrec.Code != http.StatusOK {
		t.Fatalf("JSON solve = %d: %s", jrec.Code, jrec.Body)
	}
	var jresp SolveResponse
	if err := json.Unmarshal(jrec.Body.Bytes(), &jresp); err != nil {
		t.Fatal(err)
	}

	frame := mustSolveFrame(t, SolveParams{Solver: "bandwidth", K: k}, p)
	rec := doBin(s.Handler(), "/v1/solve", frame, codec.ContentType)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary solve = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != codec.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, codec.ContentType)
	}
	res, rest, err := DecodeSolveResult(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("DecodeSolveResult: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after response frame", len(rest))
	}
	if res.Solver != jresp.Solver || res.K != jresp.K {
		t.Errorf("binary (%s, %v) != JSON (%s, %v)", res.Solver, res.K, jresp.Solver, jresp.K)
	}
	if res.CutWeight != jresp.CutWeight || res.Bottleneck != jresp.Bottleneck {
		t.Errorf("binary cut %v/%v != JSON %v/%v", res.CutWeight, res.Bottleneck, jresp.CutWeight, jresp.Bottleneck)
	}
	if len(res.Cut) != len(jresp.Cut) {
		t.Fatalf("cut lengths differ: %d vs %d", len(res.Cut), len(jresp.Cut))
	}
	for i := range res.Cut {
		if res.Cut[i] != jresp.Cut[i] {
			t.Errorf("cut[%d] = %d, want %d", i, res.Cut[i], jresp.Cut[i])
		}
	}
	fp, err := graph.Fingerprint(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != fp {
		t.Errorf("fingerprint = %x, want %x", res.Fingerprint, fp)
	}
}

func TestBinarySolveVerify(t *testing.T) {
	s := newTestServer(t, Config{})
	p := testPath(t, 32, 3)
	frame := mustSolveFrame(t, SolveParams{Solver: "bandwidth", K: 4 * p.MaxNodeWeight(), Verify: true}, p)
	rec := doBin(s.Handler(), "/v1/solve", frame, codec.ContentType)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve = %d: %s", rec.Code, rec.Body)
	}
	res, _, err := DecodeSolveResult(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == nil {
		t.Fatal("verify requested but certificate missing from binary response")
	}
	if !res.Verify.Certified {
		t.Errorf("bandwidth certificate not certified: %+v", res.Verify)
	}
}

// Content negotiation: request and response formats are independent, and
// traced solves always answer in JSON.
func TestWireNegotiation(t *testing.T) {
	s := newTestServer(t, Config{})
	p := testPath(t, 16, 5)
	k := 4 * p.MaxNodeWeight()

	// JSON request, binary Accept → binary response.
	jreq, _ := json.Marshal(solveRequest{Solver: "bandwidth", K: k, Graph: pathGraphJSON(t, 16, 5)})
	req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(jreq))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", codec.ContentType)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != codec.ContentType {
		t.Fatalf("JSON-in/bin-out: code %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if _, _, err := DecodeSolveResult(rec.Body.Bytes()); err != nil {
		t.Fatalf("response is not a PRS1 frame: %v", err)
	}

	// Binary request, no Accept → JSON response.
	frame := mustSolveFrame(t, SolveParams{Solver: "bandwidth", K: k}, p)
	rec = doBin(s.Handler(), "/v1/solve", frame, "")
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("bin-in/JSON-out: code %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var jresp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &jresp); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}

	// Trace + binary Accept → JSON (span trees have no binary rendering).
	frame = mustSolveFrame(t, SolveParams{Solver: "bandwidth", K: k, Trace: true}, p)
	rec = doBin(s.Handler(), "/v1/solve", frame, codec.ContentType)
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("traced solve: code %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &jresp); err != nil {
		t.Fatal(err)
	}
	if jresp.Trace == nil {
		t.Error("traced solve returned no span tree")
	}
}

// The cache keys JSON and binary renderings separately, and replays each
// byte-identically.
func TestWireCacheSeparation(t *testing.T) {
	s := newTestServer(t, Config{})
	p := testPath(t, 24, 9)
	k := 4 * p.MaxNodeWeight()
	frame := mustSolveFrame(t, SolveParams{Solver: "bandwidth", K: k}, p)

	recBin := doBin(s.Handler(), "/v1/solve", frame, codec.ContentType)
	if got := recBin.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("first binary solve X-Cache = %q, want MISS", got)
	}
	// The binary entry is the canonical frame: a JSON request for the same
	// solve renders from it without re-running the engine.
	recJSON := doBin(s.Handler(), "/v1/solve", frame, "")
	if got := recJSON.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("JSON render after binary solve X-Cache = %q, want HIT (rendered from canonical frame)", got)
	}
	if bytes.Equal(recJSON.Body.Bytes(), recBin.Body.Bytes()) {
		t.Error("JSON render returned the raw binary frame")
	}
	var resp SolveResponse
	if err := json.Unmarshal(recJSON.Body.Bytes(), &resp); err != nil {
		t.Fatalf("JSON render is not valid JSON: %v", err)
	}
	// The rendered JSON body is now cached under its own key and replays.
	recJSON2 := doBin(s.Handler(), "/v1/solve", frame, "")
	if got := recJSON2.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("repeat JSON solve X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(recJSON2.Body.Bytes(), recJSON.Body.Bytes()) {
		t.Error("cached JSON replay is not byte-identical")
	}
	rec2 := doBin(s.Handler(), "/v1/solve", frame, codec.ContentType)
	if got := rec2.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("repeat binary solve X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(rec2.Body.Bytes(), recBin.Body.Bytes()) {
		t.Error("cached binary replay is not byte-identical")
	}
}

func TestBinaryBatchRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	p1, p2 := testPath(t, 32, 1), testPath(t, 48, 2)
	params := []SolveParams{
		{Solver: "bandwidth", K: 4 * p1.MaxNodeWeight()},
		{Solver: "", K: 1}, // per-item error: missing solver
		{Solver: "bandwidth", K: 4 * p2.MaxNodeWeight()},
	}
	body, err := AppendBatchRequest(nil, 0, params, []any{p1, p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	rec := doBin(s.Handler(), "/v1/batch", body, codec.ContentType)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", rec.Code, rec.Body)
	}
	out, err := DecodeBatchResult(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("DecodeBatchResult: %v", err)
	}
	if out.Requests != 3 || out.Solved != 2 || out.Failed != 1 {
		t.Fatalf("stats = %+v, want 3 requests / 2 solved / 1 failed", out)
	}
	if len(out.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(out.Items))
	}
	if out.Items[0].Result == nil || out.Items[2].Result == nil {
		t.Fatal("solvable items missing results")
	}
	if out.Items[1].Error == "" || !strings.Contains(out.Items[1].Error, "solver") {
		t.Errorf("item 1 error = %q, want a solver validation error", out.Items[1].Error)
	}

	// Repeat: both solvable items replay from the cache.
	rec = doBin(s.Handler(), "/v1/batch", body, codec.ContentType)
	out, err = DecodeBatchResult(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHits != 2 || !out.Items[0].Cached || !out.Items[2].Cached {
		t.Errorf("repeat batch: cacheHits = %d, cached flags = %v/%v; want 2 and true/true",
			out.CacheHits, out.Items[0].Cached, out.Items[2].Cached)
	}
}

func TestBinaryMalformedRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	p := testPath(t, 8, 4)
	good := mustSolveFrame(t, SolveParams{Solver: "bandwidth", K: 4 * p.MaxNodeWeight()}, p)

	cases := []struct {
		name string
		path string
		body []byte
		want int
	}{
		{"bad magic", "/v1/solve", []byte("XXXX garbage"), http.StatusBadRequest},
		{"empty body", "/v1/solve", nil, http.StatusBadRequest},
		{"truncated frame", "/v1/solve", good[:len(good)-5], http.StatusBadRequest},
		{"trailing bytes", "/v1/solve", append(append([]byte{}, good...), 0xEE), http.StatusBadRequest},
		{"solve frame on batch", "/v1/batch", good, http.StatusBadRequest},
		{"empty batch", "/v1/batch", func() []byte {
			b, _ := AppendBatchRequest(nil, 0, nil, nil)
			return b
		}(), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := doBin(s.Handler(), tc.path, tc.body, "")
			if rec.Code != tc.want {
				t.Fatalf("code = %d, want %d (%s)", rec.Code, tc.want, rec.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error response not structured JSON: %q", rec.Body)
			}
		})
	}
}

// Limit violations — the node-count cap in both formats and the body cap —
// answer 413 with a structured error.
func TestRequestLimits413(t *testing.T) {
	s := newTestServer(t, Config{MaxNodes: 16})
	p := testPath(t, 64, 6)
	k := 4 * p.MaxNodeWeight()

	// Binary: declared count rejected before allocation.
	frame := mustSolveFrame(t, SolveParams{Solver: "bandwidth", K: k}, p)
	rec := doBin(s.Handler(), "/v1/solve", frame, "")
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("binary oversized graph = %d, want 413 (%s)", rec.Code, rec.Body)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("413 body not structured: %q", rec.Body)
	}

	// JSON: checked right after graph decode.
	jrec := doJSON(t, s.Handler(), "POST", "/v1/solve", solveRequest{
		Solver: "bandwidth", K: k, Graph: pathGraphJSON(t, 64, 6),
	})
	if jrec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("JSON oversized graph = %d, want 413 (%s)", jrec.Code, jrec.Body)
	}

	// Body cap: MaxBytesReader violations are 413 too.
	small := newTestServer(t, Config{MaxBodyBytes: 64})
	rec = doBin(small.Handler(), "/v1/solve", frame, "")
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413 (%s)", rec.Code, rec.Body)
	}

	// Under the limit everything still works.
	ok := testPath(t, 16, 6)
	frame = mustSolveFrame(t, SolveParams{Solver: "bandwidth", K: 4 * ok.MaxNodeWeight()}, ok)
	if rec = doBin(s.Handler(), "/v1/solve", frame, ""); rec.Code != http.StatusOK {
		t.Fatalf("at-limit graph = %d, want 200 (%s)", rec.Code, rec.Body)
	}
}

// A batch aborts only on broken framing; item-level semantic errors keep
// later frames readable.
func TestBinaryBatchFramingAbort(t *testing.T) {
	s := newTestServer(t, Config{})
	p := testPath(t, 8, 8)
	good := mustSolveFrame(t, SolveParams{Solver: "bandwidth", K: 4 * p.MaxNodeWeight()}, p)

	// Corrupt the second item's graph magic: boundary lost → 400.
	body, err := AppendBatchRequest(nil, 0,
		[]SolveParams{{Solver: "bandwidth", K: 4 * p.MaxNodeWeight()}, {Solver: "bandwidth", K: 4 * p.MaxNodeWeight()}},
		[]any{p, p})
	if err != nil {
		t.Fatal(err)
	}
	// Both items encode identically, so the second PSV1 frame occupies the
	// last len(good) bytes; clobber its magic.
	body[len(body)-len(good)] = 'X'
	rec := doBin(s.Handler(), "/v1/batch", body, "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("corrupt framing = %d, want 400 (%s)", rec.Code, rec.Body)
	}
}

func TestWireReaderOverflowGuards(t *testing.T) {
	// maxComponents beyond int32 is rejected, not truncated.
	var frame []byte
	frame = append(frame, solveReqMagic...)
	frame = append(frame, 0)                   // flags
	frame = appendF64(frame, 100)              // k
	frame = binary.AppendUvarint(frame, 1<<40) // maxComponents: absurd
	frame = binary.AppendUvarint(frame, 0)     // timeoutMs
	frame = appendString(frame, "bandwidth")
	s := newTestServer(t, Config{})
	p := testPath(t, 4, 1)
	var err error
	frame, err = codec.Append(frame, p)
	if err != nil {
		t.Fatal(err)
	}
	rec := doBin(s.Handler(), "/v1/solve", frame, "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("overflowing maxComponents = %d, want 400 (%s)", rec.Code, rec.Body)
	}
}

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// TestBinarySolveDecodeAllocBudget gates the allocations of decoding the
// 5k-node path of the JSON decode gate as a PSV1 body: the path header and
// its two arrays, none per element.
func TestBinarySolveDecodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats the pooled body buffer")
	}
	path, _ := decodeBench5k(t)
	s := newTestServer(t, Config{CacheSize: -1}) // no graph store: every decode builds the graph
	p, _, err := s.parseSolveJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	decode := decodeLoop(t, s, mustSolveFrame(t, SolveParams{Solver: p.req.Solver, K: p.req.K}, p.g))
	decode() // warm the body buffer
	const budget = 4
	if avg := testing.AllocsPerRun(50, decode); avg > budget {
		t.Fatalf("binary decode of a 5k-node path allocates %.1f/op, budget %d", avg, budget)
	}
}

// TestSolveRequestFrameAllocBudget: encoding a forward's PSV1 frame for a
// 20k-node path from nil allocates the frame once, and a 5k-node tree's
// frame does the same.
func TestSolveRequestFrameAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations to the tree encode")
	}
	r := workload.NewRNG(3)
	tr := workload.RandomTree(r, 5000, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	params := SolveParams{Solver: "bandwidth", K: 500, MaxComponents: 7, TimeoutMs: 250, Verify: true}
	for _, g := range []any{testPath(t, 20000, 9), tr} {
		var frame []byte
		avg := testing.AllocsPerRun(20, func() {
			var err error
			if frame, err = AppendSolveRequest(nil, params, g); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 1 {
			t.Errorf("%T frame of %d bytes allocates %.1f/op, budget 1", g, len(frame), avg)
		}
	}
}

// FuzzDecodeSolveBinary drives the binary request decoders with arbitrary
// bytes: a PSV1 body through decodeSolve, and the same bytes as the single
// item of a PBT1 batch frame through parseBinaryBatch. Nothing may panic,
// both must accept the same frames with bit-identical values, and an
// accepted frame must re-encode with AppendSolveRequest into a frame that
// decodes to the same request and fingerprint.
func FuzzDecodeSolveBinary(f *testing.F) {
	p, tr := goldenGraphs(f)
	for _, c := range goldenCases(p, tr) {
		body, err := AppendSolveRequest(nil, c.params(), c.graph(p, tr))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte("PSV1"))
	f.Add([]byte("PGB1\x01\x01\x01\x00"))
	s := newTestServer(f, Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body))
		req.Header.Set("Content-Type", codec.ContentType)
		got, _, err := s.decodeSolve(req)

		frame := binary.AppendUvarint(append([]byte{}, batchReqMagic...), 7)
		frame = append(binary.AppendUvarint(frame, 1), body...)
		items, errMsgs, tms, berr := s.parseBinaryBatch(frame)
		batchOK := berr == nil && errMsgs[0] == ""
		if (err == nil) != batchOK {
			t.Fatalf("decodeSolve error %v, batch error %v / item error %q", err, berr, errMsgs)
		}
		if err != nil {
			return
		}
		if tms != 7 {
			t.Fatalf("batch timeoutMs = %d, want 7", tms)
		}
		if d := sameParsed(got, items[0]); d != "" {
			t.Fatalf("decodeSolve and batch item differ: %s", d)
		}
		again, err := AppendSolveRequest(nil, got.req, got.g)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, rest, err := s.parseBinarySolve(again)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded frame: error %v, %d trailing bytes", err, len(rest))
		}
		if d := sameParsed(got, back); d != "" {
			t.Fatalf("round trip changed the request: %s", d)
		}
	})
}

// FuzzDecodeSolveResult drives the PRS1 and PBR1 response decoders, which
// forwardSolve trusts with every peer answer, with arbitrary bytes, seeded
// from the golden cases' frames. Nothing may panic, and a frame that
// decodes must re-encode to exactly the bytes it was decoded from.
func FuzzDecodeSolveResult(f *testing.F) {
	p, tr := goldenGraphs(f)
	s := newTestServer(f, Config{})
	var params []SolveParams
	var graphs []any
	for _, c := range goldenCases(p, tr) {
		frame, err := AppendSolveRequest(nil, c.params(), c.graph(p, tr))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doBin(s.Handler(), "/v1/solve", frame, codec.ContentType).Body.Bytes())
		params, graphs = append(params, c.params()), append(graphs, c.graph(p, tr))
	}
	params, graphs = append(params, SolveParams{Solver: "no-such-solver", K: 1}), append(graphs, p)
	batch, err := AppendBatchRequest(nil, 0, params, graphs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doBin(s.Handler(), "/v1/batch", batch, codec.ContentType).Body.Bytes()) // cached items
	f.Add(doBin(newTestServer(f, Config{}).Handler(), "/v1/batch", batch, codec.ContentType).Body.Bytes())
	f.Add([]byte("PRS1"))
	f.Add([]byte("PBR1\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if r, rest, err := DecodeSolveResult(b); err == nil {
			got, want := appendSolveFrame(nil, r), b[:len(b)-len(rest)]
			if !bytes.Equal(got, want) {
				t.Fatalf("PRS1 frame re-encodes to\n%x\ndecoded from\n%x", got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("PRS1 frame of %d bytes allocated with capacity %d", len(got), cap(got))
			}
		}
		r, err := DecodeBatchResult(b)
		if err != nil {
			return
		}
		got := appendBatchHeader(nil, r.Requests, r.Solved, r.Failed, r.CacheHits, r.WallMs, len(r.Items))
		for _, it := range r.Items {
			switch {
			case it.Result == nil:
				got = appendBatchItem(got, wireItemError, []byte(it.Error))
			case it.Cached:
				got = appendBatchItem(got, wireItemCached, appendSolveFrame(nil, it.Result))
			default:
				got = appendBatchItem(got, wireItemResult, appendSolveFrame(nil, it.Result))
			}
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("PBR1 frame re-encodes to\n%x\ndecoded from\n%x", got, b)
		}
	})
}
