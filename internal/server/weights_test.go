package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// weightSolveBodies returns g's JSON and PSV1 solve bodies with the same
// parameters. The JSON body is nil when encoding/json cannot express a
// weight of g (NaN and ±Inf have no JSON literal).
func weightSolveBodies(t *testing.T, solver string, g any) (jsonBody, frame []byte) {
	t.Helper()
	params := SolveParams{Solver: solver, K: 1000}
	frame = mustSolveFrame(t, params, g)
	var buf bytes.Buffer
	if graph.WriteJSON(&buf, g) != nil {
		return nil, frame
	}
	jsonBody, err := json.Marshal(solveRequest{Solver: solver, K: params.K, Graph: buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	return jsonBody, frame
}

// TestCrossFormatWeights decodes random paths and trees, some weights at
// -0.0, through both wire formats: both must give arrays bit-equal to the
// source graph's (-0.0 kept as sent) and graph.Fingerprint's fingerprint.
func TestCrossFormatWeights(t *testing.T) {
	s := newTestServer(t, Config{})
	r := workload.NewRNG(23)
	negZero := math.Copysign(0, -1)
	sprinkle := func(ws []float64) {
		for i := range ws {
			if r.Intn(6) == 0 {
				ws[i] = negZero
			}
		}
	}
	w := workload.UniformWeights(1, 100)
	for trial := range 60 {
		n := 1 + r.Intn(200)
		var g any
		var solver string
		if trial%2 == 0 {
			p := workload.RandomPath(r, n, w, w)
			sprinkle(p.NodeW)
			sprinkle(p.EdgeW)
			g, solver = p, "bandwidth"
		} else {
			tr := workload.RandomTree(r, n, w, w)
			sprinkle(tr.NodeW)
			for i := range tr.Edges {
				if r.Intn(6) == 0 {
					tr.Edges[i].W = negZero
				}
			}
			g, solver = tr, "bottleneck"
		}
		jsonBody, frame := weightSolveBodies(t, solver, g)
		jp, _, err := s.parseSolveJSON(jsonBody)
		if err != nil {
			t.Fatalf("trial %d: JSON: %v", trial, err)
		}
		bp, rest, err := s.parseBinarySolve(frame)
		if err != nil || len(rest) != 0 {
			t.Fatalf("trial %d: binary: %v (%d bytes left)", trial, err, len(rest))
		}
		fp, err := graph.Fingerprint(g)
		if err != nil {
			t.Fatal(err)
		}
		want := parsedSolve{req: jp.req, g: g, fp: fp}
		if d := sameParsed(jp, want); d != "" {
			t.Fatalf("trial %d: JSON vs source: %s", trial, d)
		}
		if d := sameParsed(bp, want); d != "" {
			t.Fatalf("trial %d: binary vs source: %s", trial, d)
		}
	}
}

// TestBadWeightErrors pins the status and error text of a solve whose graph
// holds one bad weight, for {NaN, ±Inf, -1, -smallest subnormal} × {node,
// edge} × index {0, 3, 4, last} on paths and trees, over every wire format
// that can carry the value. The indices straddle the fingerprint's
// four-word stripes.
func TestBadWeightErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	values := []struct {
		name string
		w    float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"-1", -1},
		{"-min-subnormal", -math.SmallestNonzeroFloat64},
	}
	const n = 9
	var out strings.Builder
	for _, kind := range []string{"path", "tree"} {
		for _, where := range []string{"node", "edge"} {
			for _, v := range values {
				for _, idx := range []int{0, 3, 4, -1} {
					nodeW := make([]float64, n)
					edgeW := make([]float64, n-1)
					for i := range nodeW {
						nodeW[i] = float64(i + 1)
					}
					for i := range edgeW {
						edgeW[i] = float64(2*i + 1)
					}
					ws := nodeW
					if where == "edge" {
						ws = edgeW
					}
					at := fmt.Sprint(idx)
					if idx < 0 {
						idx, at = len(ws)-1, "last"
					}
					ws[idx] = v.w
					var g any
					solver := "bandwidth"
					if kind == "path" {
						g = &graph.Path{NodeW: nodeW, EdgeW: edgeW}
					} else {
						edges := make([]graph.Edge, n-1)
						for i := range edges {
							edges[i] = graph.Edge{U: i / 2, V: i + 1, W: edgeW[i]}
						}
						g, solver = &graph.Tree{NodeW: nodeW, Edges: edges}, "bottleneck"
					}
					jsonBody, frame := weightSolveBodies(t, solver, g)
					for _, format := range []string{"json", "binary"} {
						var rec *httptest.ResponseRecorder
						switch {
						case format == "binary":
							rec = doBin(s.Handler(), "/v1/solve", frame, "")
						case jsonBody != nil:
							rec = doJSONRaw(s.Handler(), "POST", "/v1/solve", json.RawMessage(jsonBody))
						default:
							continue
						}
						fmt.Fprintf(&out, "%s %s %s[%s]=%s: %d %s\n", format, kind, where, at, v.name,
							rec.Code, strings.TrimSpace(rec.Body.String()))
					}
				}
			}
		}
	}
	checkGolden(t, "bad_weights.txt", out.String())
}
