package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/codec"
)

// onlyEntry returns the one entry s caches, failing unless there is exactly
// one.
func onlyEntry(t *testing.T, s *Server) *cacheEntry {
	t.Helper()
	var out []*cacheEntry
	for _, sh := range s.cache.shards {
		sh.mu.Lock()
		for el := sh.ll.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*cacheEntry))
		}
		sh.mu.Unlock()
	}
	if len(out) != 1 {
		t.Fatalf("%d cache entries, want 1", len(out))
	}
	return out[0]
}

// memoOf is e's JSON memo, nil while it is empty.
func memoOf(e *cacheEntry) []byte {
	if p := e.json.Load(); p != nil {
		return *p
	}
	return nil
}

// binaryAnswer fetches req's answer as a PRS1 frame and renders it to JSON
// without a cache entry: the body every JSON response for req must equal.
func binaryAnswer(t *testing.T, h http.Handler, req solveRequest) []byte {
	t.Helper()
	frame := postGolden(t, h, "/v1/solve", req, false, codec.ContentType)
	body, err := renderJSONResult(&resolved{frame: frame}, false)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// memoRoutes fetch one untraced JSON answer for req through each route that
// renders JSON solve bodies, returning the solve object alone.
var memoRoutes = []struct {
	name  string
	fetch func(t *testing.T, h http.Handler, req solveRequest) []byte
}{
	{"solve", func(t *testing.T, h http.Handler, req solveRequest) []byte {
		return bytes.TrimSuffix(postGolden(t, h, "/v1/solve", req, false, ""), []byte("\n"))
	}},
	{"batch", func(t *testing.T, h http.Handler, req solveRequest) []byte {
		var resp batchResponse
		raw := postGolden(t, h, "/v1/batch", batchRequest{Requests: []solveRequest{req}}, false, "")
		if err := json.Unmarshal(raw, &resp); err != nil || len(resp.Items) != 1 || resp.Items[0].Error != "" {
			t.Fatalf("batch response %s: %v", raw, err)
		}
		return resp.Items[0].Result
	}},
	{"job", func(t *testing.T, h http.Handler, req solveRequest) []byte {
		var sub JobSubmitResponse
		if err := json.Unmarshal(postGolden(t, h, "/v1/jobs", jobSubmitRequest{solveRequest: req}, false, ""), &sub); err != nil {
			t.Fatal(err)
		}
		return waitGoldenJob(t, h, sub.ID).Result
	}},
}

// TestJSONMemoByteIdentical: through every JSON route, the miss, the first
// hit (which fills the entry's memo) and a later hit (which reads it) are
// byte-identical, and equal the render of the frame a binary request gets.
// The miss keeps no memo.
func TestJSONMemoByteIdentical(t *testing.T) {
	for _, rt := range memoRoutes {
		t.Run(rt.name, func(t *testing.T) {
			s := newTestServer(t, Config{})
			h := s.Handler()
			req := solveRequest{Solver: "bandwidth", K: 400, Graph: pathGraphJSON(t, 300, 31)}
			miss := rt.fetch(t, h, req)
			e := onlyEntry(t, s)
			if memoOf(e) != nil {
				t.Fatal("the miss filled the memo")
			}
			first := rt.fetch(t, h, req)
			memo := memoOf(e)
			if memo == nil {
				t.Fatal("the first JSON hit left the memo empty")
			}
			later := rt.fetch(t, h, req)
			want := binaryAnswer(t, h, req)
			for _, got := range []struct {
				name string
				body []byte
			}{{"miss", miss}, {"first hit", first}, {"later hit", later}, {"memo", memo}} {
				if !bytes.Equal(got.body, want) {
					t.Errorf("%s body differs from the binary answer's render:\n%s\nvs\n%s", got.name, got.body, want)
				}
			}
			if cap(memo) != len(memo) {
				t.Errorf("memo has %d bytes in a capacity of %d; an append would write into it", len(memo), cap(memo))
			}
		})
	}
}

// TestJSONMemoTracedRefresh: a traced solve or job on a memoized key gets
// its trace, and its re-solve replaces the entry, dropping the memo; the
// next untraced JSON hit renders the refreshed frame, new durationMs and
// all, not the old memo.
func TestJSONMemoTracedRefresh(t *testing.T) {
	for _, tc := range memoRoutes {
		if tc.name == "batch" {
			continue // batch items ignore their trace flags
		}
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{})
			h := s.Handler()
			req := solveRequest{Solver: "bandwidth", K: 400, Graph: pathGraphJSON(t, 300, 32)}
			memoRoutes[0].fetch(t, h, req) // miss
			memoRoutes[0].fetch(t, h, req) // first hit: fills the memo
			old := onlyEntry(t, s)
			if memoOf(old) == nil {
				t.Fatal("memo empty after a JSON hit")
			}
			treq := req
			treq.Trace = true
			var got SolveResponse
			if body := tc.fetch(t, h, treq); json.Unmarshal(body, &got) != nil || got.Trace == nil {
				t.Fatalf("traced %s answered without its trace: %s", tc.name, body)
			}
			if onlyEntry(t, s) == old {
				t.Fatal("the traced re-solve did not replace the cache entry")
			}
			hit := memoRoutes[0].fetch(t, h, req)
			if want := binaryAnswer(t, h, req); !bytes.Equal(hit, want) {
				t.Errorf("hit after the traced refresh differs from the refreshed frame's render:\n%s\nvs\n%s", hit, want)
			}
		})
	}
}

// TestJSONMemoBinaryOnly: binary solves and batches, misses and hits, never
// render JSON, so they leave the memo empty.
func TestJSONMemoBinaryOnly(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	req := solveRequest{Solver: "bandwidth", K: 400, Graph: pathGraphJSON(t, 300, 33)}
	for range 2 {
		postGolden(t, h, "/v1/solve", req, false, codec.ContentType)
		postGolden(t, h, "/v1/batch", batchRequest{Requests: []solveRequest{req}}, false, codec.ContentType)
	}
	if memo := memoOf(onlyEntry(t, s)); memo != nil {
		t.Fatalf("binary traffic filled the memo: %s", memo)
	}
}

// TestJSONMemoConcurrentHits: 8 goroutines racing to fill and read one
// entry's memo all get the same bytes.
func TestJSONMemoConcurrentHits(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	req := solveRequest{Solver: "bandwidth", K: 400, Graph: pathGraphJSON(t, 300, 34)}
	want := binaryAnswer(t, h, req)
	var wg sync.WaitGroup
	fails := make([]string, 8)
	for g := range fails {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				rec := doJSONRaw(h, "POST", "/v1/solve", req)
				if body := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")); rec.Code != http.StatusOK || !bytes.Equal(body, want) {
					fails[g] = fmt.Sprintf("status %d: %s", rec.Code, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, fail := range fails {
		if fail != "" {
			t.Errorf("goroutine %d got %s, want %s", g, fail, want)
		}
	}
}

// TestJSONCachedHitAllocBudget gates what a JSON hit costs once its request
// is decoded: the cache lookup and the memoized body, which allocate
// nothing. Rendering on every hit would allocate more than the body's bytes.
func TestJSONCachedHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	path, _ := decodeBench5k(t)
	s := newTestServer(t, Config{})
	p, _, err := s.decodeSolve(httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(path)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var body []byte
	hit := func() {
		res, err := s.resolve(ctx, &p, caller{})
		if err == nil {
			body, err = renderJSONResult(&res, false)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	hit() // the miss
	hit() // the first hit fills the memo
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		hit()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
	const allocBudget, byteBudget = 0, 0
	if allocs > allocBudget || bytesPer > byteBudget {
		t.Fatalf("cached JSON hit of a 5k-node path: %d allocs and %d B per op (body %d B), budget %d allocs and %d B",
			allocs, bytesPer, len(body), allocBudget, byteBudget)
	}
}
