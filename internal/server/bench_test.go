package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/workload"
)

// benchBody marshals one solve request over a random n-node path.
func benchBody(b *testing.B, n int, k float64Factor, solver string, noCache bool) []byte {
	b.Helper()
	r := workload.NewRNG(11)
	p := workload.RandomPath(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	var buf bytes.Buffer
	if err := graph.WriteJSON(&buf, p); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(solveRequest{
		Solver:  solver,
		K:       k(p),
		Graph:   buf.Bytes(),
		NoCache: noCache,
	})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// benchBodyBin renders the same request as benchBody in the binary wire
// format (PSV1 frame with an embedded PGB1 graph).
func benchBodyBin(b *testing.B, n int, k float64Factor, solver string, noCache bool) []byte {
	b.Helper()
	r := workload.NewRNG(11)
	p := workload.RandomPath(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	body, err := AppendSolveRequest(nil, SolveParams{Solver: solver, K: k(p), NoCache: noCache}, p)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

type float64Factor func(p *graph.Path) float64

func benchServer(b *testing.B, cfg Config) *Server {
	b.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	return New(cfg)
}

func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// postBin posts a binary body and asks for a binary response.
func postBin(h http.Handler, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", codec.ContentType)
	req.Header.Set("Accept", codec.ContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// BenchmarkSolveUncached measures the full request path with the cache
// bypassed: decode, fingerprint, admission, engine solve, marshal.
func BenchmarkSolveUncached(b *testing.B) {
	s := benchServer(b, Config{MaxConcurrent: 1, MaxQueue: 4})
	body := benchBody(b, 5000, func(p *graph.Path) float64 { return 4 * p.MaxNodeWeight() }, "bandwidth", true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(s.Handler(), body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkSolveUncachedBinary is BenchmarkSolveUncached over the binary
// wire format in both directions, on a 5k-node path (bandwidth) and a
// 5k-node tree (minproc, which roots the tree): the JSON run is dominated by
// decode+marshal, the binary run by the solve itself. The stored case sends
// one graph, which the graph store holds after the first request; the fresh
// case changes one weight every iteration, so each request decodes, checks
// and roots a new graph.
func BenchmarkSolveUncachedBinary(b *testing.B) {
	tr := workload.RandomTree(workload.NewRNG(11), 5000, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	treeBody, err := AppendSolveRequest(nil, SolveParams{Solver: "minproc", K: 10 * tr.MaxNodeWeight(), NoCache: true}, tr)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"path5k", benchBodyBin(b, 5000, func(p *graph.Path) float64 { return 4 * p.MaxNodeWeight() }, "bandwidth", true)},
		{"tree5k", treeBody},
	} {
		for _, fresh := range []bool{false, true} {
			b.Run(c.name+"/"+storedOrFresh(fresh), func(b *testing.B) {
				s := benchServer(b, Config{MaxConcurrent: 1, MaxQueue: 4})
				defer benchShutdownJobs(b, s)
				body, next := freshGraphs(b, c.body)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if fresh {
						next(i)
					}
					if rec := postBin(s.Handler(), body); rec.Code != http.StatusOK {
						b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
					}
				}
			})
		}
	}
}

func storedOrFresh(fresh bool) string {
	if fresh {
		return "fresh"
	}
	return "stored"
}

// freshGraphs returns a copy of body, a JSON solve request or a PSV1 frame,
// and a function that rewrites the copy's first node weight in place to a
// value that depends on i alone and lies in [1, 11): each i sends a graph
// that no other i sends, which the graph store has not seen.
func freshGraphs(tb testing.TB, body []byte) ([]byte, func(i int)) {
	tb.Helper()
	if at := bytes.Index(body, []byte("PGB1")); bytes.HasPrefix(body, solveReqMagic) && at > 0 {
		b := slices.Clone(body)
		_, n1 := binary.Uvarint(b[at+6:])
		_, n2 := binary.Uvarint(b[at+6+n1:])
		off := at + 6 + n1 + n2
		return b, func(i int) {
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(1+float64(i%(10<<20))/(1<<20)))
		}
	}
	key := []byte(`"nodeWeights":[`)
	at := bytes.Index(body, key) + len(key)
	end := at + bytes.IndexByte(body[at:], ',')
	if at < len(key) || end < at {
		tb.Fatalf("no node weights in %.60q", body)
	}
	// A fixed-width first weight, 1.0000000, whose seven decimals i sets.
	b := slices.Concat(body[:at], []byte("1.0000000"), body[end:])
	return b, func(i int) {
		for d := at + 8; d > at+1; d-- {
			b[d] = byte('0' + i%10)
			i /= 10
		}
	}
}

// BenchmarkSolveCachedBinary is the cached fast path over binary frames.
func BenchmarkSolveCachedBinary(b *testing.B) {
	s := benchServer(b, Config{MaxConcurrent: 1, MaxQueue: 4})
	body := benchBodyBin(b, 5000, func(p *graph.Path) float64 { return 4 * p.MaxNodeWeight() }, "bandwidth", false)
	if rec := postBin(s.Handler(), body); rec.Code != http.StatusOK { // warm
		b.Fatalf("warm status %d", rec.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := postBin(s.Handler(), body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "HIT" {
			b.Fatalf("status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
	}
}

// BenchmarkSolveCached measures the same request answered from the result
// cache — the O(1)-lookup fast path the serving layer exists for.
func BenchmarkSolveCached(b *testing.B) {
	s := benchServer(b, Config{MaxConcurrent: 1, MaxQueue: 4})
	body := benchBody(b, 5000, func(p *graph.Path) float64 { return 4 * p.MaxNodeWeight() }, "bandwidth", false)
	if rec := post(s.Handler(), body); rec.Code != http.StatusOK { // warm
		b.Fatalf("warm status %d", rec.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := post(s.Handler(), body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "HIT" {
			b.Fatalf("status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
	}
}

// BenchmarkSolveUncachedHeavy uses the quadratic bandwidth-naive solver on
// a wide window, where the solve dwarfs request decoding — the workload the
// cache is for.
func BenchmarkSolveUncachedHeavy(b *testing.B) {
	s := benchServer(b, Config{MaxConcurrent: 1, MaxQueue: 4})
	body := benchBody(b, 10000, func(p *graph.Path) float64 { return p.TotalNodeWeight() / 2 }, "bandwidth-naive", true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(s.Handler(), body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkSolveCachedHeavy is the same heavy request answered from cache.
func BenchmarkSolveCachedHeavy(b *testing.B) {
	s := benchServer(b, Config{MaxConcurrent: 1, MaxQueue: 4})
	body := benchBody(b, 10000, func(p *graph.Path) float64 { return p.TotalNodeWeight() / 2 }, "bandwidth-naive", false)
	if rec := post(s.Handler(), body); rec.Code != http.StatusOK { // warm
		b.Fatalf("warm status %d", rec.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := post(s.Handler(), body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "HIT" {
			b.Fatalf("status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
	}
}

// BenchmarkServerAtConcurrencyLimit drives parallel clients against a
// limiter sized to the host, mixing K values so only some requests hit the
// cache — the requests/sec figure for the baseline record. Shed responses
// (429/503) count as completed requests, as they do for a real client.
func BenchmarkServerAtConcurrencyLimit(b *testing.B) {
	s := benchServer(b, Config{
		MaxConcurrent: runtime.GOMAXPROCS(0),
		MaxQueue:      4 * runtime.GOMAXPROCS(0),
	})
	r := workload.NewRNG(12)
	p := workload.RandomPath(r, 2000, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	var buf bytes.Buffer
	if err := graph.WriteJSON(&buf, p); err != nil {
		b.Fatal(err)
	}
	const distinctKs = 16
	bodies := make([][]byte, distinctKs)
	for i := range bodies {
		body, err := json.Marshal(solveRequest{
			Solver: "bandwidth",
			K:      4*p.MaxNodeWeight() + float64(i),
			Graph:  buf.Bytes(),
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	var served, shed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			rec := post(s.Handler(), bodies[i%distinctKs])
			i++
			switch rec.Code {
			case http.StatusOK:
				served.Add(1)
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				shed.Add(1)
			default:
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	})
	b.StopTimer()
	total := served.Load() + shed.Load()
	if total > 0 {
		b.ReportMetric(float64(served.Load())/float64(total)*100, "served_%")
	}
	if hits, misses := s.clusterm.localHits.Load(), s.clusterm.localMisses.Load(); hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses)*100, "cache_hit_%")
	}
}

// benchShutdownJobs stops the benchmark server's job dispatcher so the next
// benchmark's goroutine counts start clean.
func benchShutdownJobs(b *testing.B, s *Server) {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.jobs.Shutdown(ctx); err != nil {
		b.Fatalf("jobs shutdown: %v", err)
	}
}

// BenchmarkDirectSolveBaseline is the comparison point for the jobs
// overhead benchmark: the same uncached solve through the synchronous
// route, one request per iteration.
func BenchmarkDirectSolveBaseline(b *testing.B) {
	s := benchServer(b, Config{MaxConcurrent: 1, MaxQueue: 4})
	defer benchShutdownJobs(b, s)
	body := benchBody(b, 512, func(p *graph.Path) float64 { return 4 * p.MaxNodeWeight() }, "bandwidth", true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(s.Handler(), body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkJobSubmitToResult measures the full async round trip for the
// solve in BenchmarkDirectSolveBaseline: POST /v1/jobs, follow the SSE
// stream to the terminal event, GET the result. The delta against the
// baseline is the price of durability — queue hop, worker hand-off, event
// ring, SSE rendering, result fetch.
func BenchmarkJobSubmitToResult(b *testing.B) {
	s := benchServer(b, Config{MaxConcurrent: 1, MaxQueue: 4})
	defer benchShutdownJobs(b, s)
	// The same graph and K the baseline solves, wrapped in a job submission.
	r := workload.NewRNG(11)
	p := workload.RandomPath(r, 512, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	var gbuf bytes.Buffer
	if err := graph.WriteJSON(&gbuf, p); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(jobSubmitRequest{solveRequest: solveRequest{
		Solver:  "bandwidth",
		K:       4 * p.MaxNodeWeight(),
		Graph:   gbuf.Bytes(),
		NoCache: true,
	}})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			b.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
		}
		var sub JobSubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
			b.Fatal(err)
		}
		// The events handler returns only after the terminal state event, so
		// one synchronous request doubles as the wait.
		erec := httptest.NewRecorder()
		h.ServeHTTP(erec, httptest.NewRequest("GET", "/v1/jobs/"+sub.ID+"/events", nil))
		if erec.Code != http.StatusOK {
			b.Fatalf("events status %d", erec.Code)
		}
		grec := httptest.NewRecorder()
		h.ServeHTTP(grec, httptest.NewRequest("GET", "/v1/jobs/"+sub.ID, nil))
		if grec.Code != http.StatusOK {
			b.Fatalf("get status %d", grec.Code)
		}
		var st JobStatusResponse
		if err := json.Unmarshal(grec.Body.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
		if st.State != jobs.StateSucceeded || st.Result == nil {
			b.Fatalf("job landed as %s (%s)", st.State, st.Error)
		}
	}
}
