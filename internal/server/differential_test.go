package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/verify"
	"repro/internal/workload"
)

// TestHTTPDifferential serves every solver that declares an objective over
// both request formats (JSON and PSV1) and both routes (solved by the
// owning node, or forwarded to it by the other node of a two-node cluster).
// Each served cut, cut weight, bottleneck and component load must equal
// engine.Solve's bit for bit, and verify.CertifyResult must certify it.
// Every request carries a graph no node has seen, so each one is solved on
// its route rather than replayed from a cache.
func TestHTTPDifferential(t *testing.T) {
	nodes := newTestCluster(t, 2)
	seed := uint64(100)
	for _, name := range engine.Names() {
		s, err := engine.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if o := engine.ObjectiveOf(s); o == engine.ObjectiveNone || o == engine.ObjectiveUnknown {
			continue // no certificate: the treecut tier and test stand-ins
		}
		for _, binary := range []bool{false, true} {
			for _, forwarded := range []bool{false, true} {
				seed++
				r := workload.NewRNG(seed)
				n := 50 + r.Intn(150)
				req := engine.Request{Solver: name}
				var g any
				var maxW float64
				if s.Kind() == engine.KindPath {
					req.Path = workload.RandomPath(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
					g, maxW = req.Path, req.Path.MaxNodeWeight()
				} else {
					req.Tree = workload.RandomTree(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
					g, maxW = req.Tree, req.Tree.MaxNodeWeight()
				}
				switch engine.ObjectiveOf(s) {
				case engine.ObjectiveMaxMin, engine.ObjectiveSumOfMax:
					req.K = 4 // the part count
				default:
					req.K = 4 * maxW
				}
				if name == "bandwidth-limited" {
					req.Options.MaxComponents = n // a cap that cannot bind
				}
				label := name + map[bool]string{false: "/json", true: "/psv1"}[binary] +
					map[bool]string{false: "/direct", true: "/forwarded"}[forwarded]
				t.Run(label, func(t *testing.T) {
					want, err := engine.Solve(context.Background(), req)
					if err != nil {
						t.Fatalf("engine.Solve: %v", err)
					}
					fp, err := graph.Fingerprint(g)
					if err != nil {
						t.Fatal(err)
					}
					owner := ownerOf(t, nodes, fp)
					target, wantRoute := nodes[owner], "local"
					if forwarded {
						target, wantRoute = nodes[1-owner], "forwarded "+nodes[owner].url
					}
					got, route := serveSolve(t, target.url, req, g, binary)
					if route != wantRoute {
						t.Fatalf("X-Cluster = %q, want %q", route, wantRoute)
					}
					if !slices.Equal(got.Cut, want.Cut) {
						t.Errorf("cut = %v, engine = %v", got.Cut, want.Cut)
					}
					sameBits(t, "cut weight", []float64{got.CutWeight}, []float64{want.CutWeight})
					sameBits(t, "bottleneck", []float64{got.Bottleneck}, []float64{want.Bottleneck})
					sameBits(t, "component weights", got.ComponentWeights, want.ComponentWeights)
					cert, err := verify.CertifyResult(req, &got)
					if err != nil {
						t.Fatalf("CertifyResult: %v", err)
					}
					if !cert.Certified {
						t.Errorf("served answer not certified: %+v", cert)
					}
				})
			}
		}
	}
}

// serveSolve posts req over HTTP in JSON or as a PSV1 frame and returns the
// served answer as an engine result, with the X-Cluster header.
func serveSolve(t *testing.T, url string, req engine.Request, g any, binary bool) (engine.Result, string) {
	t.Helper()
	if binary {
		frame, err := AppendSolveRequest(nil, SolveParams{Solver: req.Solver, K: req.K, MaxComponents: req.Options.MaxComponents}, g)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postBinarySolve(t, url, frame, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		sr, rest, err := DecodeSolveResult(body)
		if err != nil || len(rest) != 0 {
			t.Fatalf("response is not one PRS1 frame: %v (%d trailing)", err, len(rest))
		}
		return engine.Result{Cut: sr.Cut, CutWeight: sr.CutWeight, Bottleneck: sr.Bottleneck, ComponentWeights: sr.ComponentWeights}, resp.Header.Get("X-Cluster")
	}
	var buf bytes.Buffer
	if err := graph.WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	sreq := solveRequest{Solver: req.Solver, K: req.K, MaxComponents: req.Options.MaxComponents, Graph: buf.Bytes()}
	resp, body, err := postJSONSolve(url, sreq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return engine.Result{Cut: sr.Cut, CutWeight: sr.CutWeight, Bottleneck: sr.Bottleneck, ComponentWeights: sr.ComponentWeights}, resp.Header.Get("X-Cluster")
}

// sameBits fails t unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Errorf("%s = %v, engine = %v", what, got, want)
	}
}
