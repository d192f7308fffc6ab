package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/workload"
)

// Golden response bodies for /v1/solve, /v1/batch and /v1/jobs. Every solver
// below is deterministic, so apart from the measured solve duration (and a
// batch's wall time) each response is pinned byte for byte, in JSON and in
// the PRS1/PBR1 binary frames. Regenerate with
//
//	go test ./internal/server -run TestGolden -update

var updateGolden = flag.Bool("update", false, "rewrite the golden response files under testdata/")

// goldenCase is one solve request of the golden set.
type goldenCase struct {
	solver string
	k      float64
	tree   bool
	verify bool
}

// goldenGraphs are the fixed inputs: a 60-node path for the path solver and
// a 40-node tree for the tree solvers. The tree's edge weights are integral
// so every summation order of a cut weight gives the same bits.
func goldenGraphs(t testing.TB) (*graph.Path, *graph.Tree) {
	t.Helper()
	r := workload.NewRNG(20261016)
	p := workload.RandomPath(r, 60, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	tr := workload.RandomTree(r, 40, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	for i := range tr.Edges {
		tr.Edges[i].W = math.Round(tr.Edges[i].W)
	}
	return p, tr
}

func goldenCases(p *graph.Path, tr *graph.Tree) []goldenCase {
	base := []goldenCase{
		{solver: "bandwidth", k: 4 * p.MaxNodeWeight()},
		{solver: "bottleneck", k: 3 * tr.MaxNodeWeight(), tree: true},
		{solver: "minproc", k: 3 * tr.MaxNodeWeight(), tree: true},
		{solver: "partition-tree", k: 3 * tr.MaxNodeWeight(), tree: true},
		{solver: "maxmin-tree", k: 5, tree: true},
		{solver: "summax-tree", k: 5, tree: true},
		{solver: "treecut-greedy", k: 3 * tr.MaxNodeWeight(), tree: true},
	}
	var out []goldenCase
	for _, c := range base {
		for _, v := range []bool{false, true} {
			c.verify = v
			out = append(out, c)
		}
	}
	return out
}

func (c goldenCase) name() string {
	return fmt.Sprintf("%s/verify=%t", c.solver, c.verify)
}

func (c goldenCase) graph(p *graph.Path, tr *graph.Tree) any {
	if c.tree {
		return tr
	}
	return p
}

func (c goldenCase) jsonRequest(t testing.TB, p *graph.Path, tr *graph.Tree) solveRequest {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteJSON(&buf, c.graph(p, tr)); err != nil {
		t.Fatal(err)
	}
	return solveRequest{Solver: c.solver, K: c.k, Graph: json.RawMessage(buf.Bytes()), Verify: c.verify}
}

func (c goldenCase) params() SolveParams {
	return SolveParams{Solver: c.solver, K: c.k, Verify: c.verify}
}

var (
	goldenDurationRe = regexp.MustCompile(`"durationMs":[^,}]+`)
	goldenWallRe     = regexp.MustCompile(`"wallMs":[^,}]+`)
)

// maskJSON zeroes the timing fields of a JSON solve or batch body.
func maskJSON(b []byte) string {
	b = goldenDurationRe.ReplaceAll(b, []byte(`"durationMs":0`))
	b = goldenWallRe.ReplaceAll(b, []byte(`"wallMs":0`))
	return strings.TrimSuffix(string(b), "\n")
}

// maskSolveFrame zeroes the durationMs field of a PRS1 frame in place: it
// follows magic, flags, solver, and the k, fingerprint, cutWeight and
// bottleneck words.
func maskSolveFrame(t *testing.T, b []byte) {
	t.Helper()
	if !bytes.HasPrefix(b, solveRespMagic) {
		t.Fatalf("not a PRS1 frame: %q", b)
	}
	off := len(solveRespMagic) + 1
	n, w := binary.Uvarint(b[off:])
	off += w + int(n) + 4*8
	if off+8 > len(b) {
		t.Fatalf("PRS1 frame too short: %d bytes", len(b))
	}
	copy(b[off:off+8], make([]byte, 8))
}

// maskBatchFrame zeroes the wall time of a PBR1 frame and the solve
// durations of its result items, in place.
func maskBatchFrame(t *testing.T, b []byte) {
	t.Helper()
	if !bytes.HasPrefix(b, batchRespMagic) {
		t.Fatalf("not a PBR1 frame: %q", b)
	}
	off := len(batchRespMagic)
	for i := 0; i < 4; i++ {
		_, w := binary.Uvarint(b[off:])
		off += w
	}
	copy(b[off:off+8], make([]byte, 8))
	off += 8
	count, w := binary.Uvarint(b[off:])
	off += w
	for i := uint64(0); i < count; i++ {
		tag := b[off]
		n, w := binary.Uvarint(b[off+1:])
		off += 1 + w
		if tag != wireItemError {
			maskSolveFrame(t, b[off:off+int(n)])
		}
		off += int(n)
	}
}

// checkGolden compares got against testdata/<file>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// postGolden posts a JSON or binary body with the given Accept header and
// fails the test on any non-2xx answer.
func postGolden(t *testing.T, h http.Handler, path string, body any, bin bool, accept string) []byte {
	t.Helper()
	var rec *httptest.ResponseRecorder
	if bin {
		rec = doBin(h, path, body.([]byte), accept)
	} else {
		rec = doJSONRawHeaders(h, "POST", path, body, map[string]string{"Accept": accept})
	}
	if rec.Code/100 != 2 {
		t.Fatalf("POST %s = %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestGoldenSolve pins /v1/solve bodies: JSON and binary requests, each
// answered in JSON and in PRS1.
func TestGoldenSolve(t *testing.T) {
	p, tr := goldenGraphs(t)
	var out strings.Builder
	for _, c := range goldenCases(p, tr) {
		jreq := c.jsonRequest(t, p, tr)
		frame := mustSolveFrame(t, c.params(), c.graph(p, tr))
		for _, v := range []struct {
			label  string
			bin    bool
			accept string
		}{
			{"json>json", false, ""},
			{"json>bin", false, codec.ContentType},
			{"bin>json", true, ""},
			{"bin>bin", true, codec.ContentType},
		} {
			// A fresh server per variant: every body is the miss-path render.
			s := newTestServer(t, Config{})
			var body []byte
			if v.bin {
				body = postGolden(t, s.Handler(), "/v1/solve", frame, true, v.accept)
			} else {
				body = postGolden(t, s.Handler(), "/v1/solve", jreq, false, v.accept)
			}
			fmt.Fprintf(&out, "== %s %s\n", c.name(), v.label)
			if v.accept == codec.ContentType {
				masked := append([]byte(nil), body...)
				maskSolveFrame(t, masked)
				out.WriteString(hex.EncodeToString(masked))
			} else {
				out.WriteString(maskJSON(body))
			}
			out.WriteString("\n")
		}
	}
	checkGolden(t, "golden_solve.txt", out.String())
}

// TestGoldenBatch pins /v1/batch bodies for one batch holding every golden
// case, as a JSON request answered in JSON and a PBT1 request answered in
// PBR1.
func TestGoldenBatch(t *testing.T) {
	p, tr := goldenGraphs(t)
	cases := goldenCases(p, tr)
	var breq batchRequest
	params := make([]SolveParams, len(cases))
	graphs := make([]any, len(cases))
	for i, c := range cases {
		breq.Requests = append(breq.Requests, c.jsonRequest(t, p, tr))
		params[i], graphs[i] = c.params(), c.graph(p, tr)
	}
	frame, err := AppendBatchRequest(nil, 0, params, graphs)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	out.WriteString("== json\n")
	out.WriteString(maskJSON(postGolden(t, newTestServer(t, Config{}).Handler(), "/v1/batch", breq, false, "")))
	out.WriteString("\n== bin\n")
	body := postGolden(t, newTestServer(t, Config{}).Handler(), "/v1/batch", frame, true, codec.ContentType)
	maskBatchFrame(t, body)
	out.WriteString(hex.EncodeToString(body))
	out.WriteString("\n")
	checkGolden(t, "golden_batch.txt", out.String())
}

// TestGoldenJob pins the result a /v1/jobs submission reports once it
// succeeds, for JSON and PSV1 submissions.
func TestGoldenJob(t *testing.T) {
	p, tr := goldenGraphs(t)
	var out strings.Builder
	for _, c := range goldenCases(p, tr) {
		for _, bin := range []bool{false, true} {
			s := newTestServer(t, Config{})
			h := s.Handler()
			var sub []byte
			if bin {
				sub = postGolden(t, h, "/v1/jobs", mustSolveFrame(t, c.params(), c.graph(p, tr)), true, "")
			} else {
				sub = postGolden(t, h, "/v1/jobs", jobSubmitRequest{solveRequest: c.jsonRequest(t, p, tr)}, false, "")
			}
			var js JobSubmitResponse
			if err := json.Unmarshal(sub, &js); err != nil {
				t.Fatal(err)
			}
			st := waitGoldenJob(t, h, js.ID)
			fmt.Fprintf(&out, "== %s bin=%t\n%s\n", c.name(), bin, maskJSON(st.Result))
		}
	}
	checkGolden(t, "golden_job.txt", out.String())
}

// waitGoldenJob polls a job through the handler until it succeeds.
func waitGoldenJob(t *testing.T, h http.Handler, id string) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := doJSON(t, h, "GET", "/v1/jobs/"+id, nil)
		var st JobStatusResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case jobs.StateSucceeded:
			return st
		case jobs.StateFailed, jobs.StateCanceled:
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
