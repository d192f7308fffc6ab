package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/verify"
)

// Output checks. Every response is checked inline for structure and
// feasibility against its request; after the run a seeded sample of ops is
// re-solved in-process and must match the daemon bit for bit and certify.

// answer is one solve result as the daemon returned it, in either format.
type answer struct {
	solver     string
	k          float64
	fp         uint64
	cut        []int
	cutWeight  float64
	bottleneck float64
	weights    []float64
	iterations int64
	cert       *certInfo
	frame      []byte // the PRS1 frame, when the answer arrived binary
}

type certInfo struct {
	Criterion string  `json:"criterion"`
	Certified bool    `json:"certified"`
	Objective float64 `json:"objective"`
	Bound     float64 `json:"bound"`
	Detail    string  `json:"detail"`
}

func decodeFrame(body []byte) (*answer, error) {
	r, rest, err := server.DecodeSolveResult(body)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d bytes after the PRS1 frame", len(rest))
	}
	a := answerOf(r)
	a.frame = slices.Clone(body)
	return a, nil
}

func answerOf(r *server.SolveResult) *answer {
	a := &answer{
		solver:     r.Solver,
		k:          r.K,
		fp:         r.Fingerprint,
		cut:        r.Cut,
		cutWeight:  r.CutWeight,
		bottleneck: r.Bottleneck,
		weights:    r.ComponentWeights,
		iterations: r.Iterations,
	}
	if v := r.Verify; v != nil {
		a.cert = &certInfo{Criterion: v.Criterion, Certified: v.Certified, Objective: v.Objective, Bound: v.Bound, Detail: v.Detail}
	}
	return a
}

// decodeJSONAnswer decodes a JSON solve response. encoding/json renders
// float64 in shortest round-trip form, so the decoded values carry the exact
// bits the daemon computed.
func decodeJSONAnswer(body []byte) (*answer, error) {
	var r struct {
		Solver           string    `json:"solver"`
		K                float64   `json:"k"`
		Cut              []int     `json:"cut"`
		CutWeight        float64   `json:"cutWeight"`
		Bottleneck       float64   `json:"bottleneck"`
		ComponentWeights []float64 `json:"componentWeights"`
		NumComponents    int       `json:"numComponents"`
		Fingerprint      string    `json:"fingerprint"`
		Verify           *certInfo `json:"verify"`
		Stats            struct {
			Iterations int64 `json:"iterations"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode JSON answer: %w", err)
	}
	fp, err := strconv.ParseUint(r.Fingerprint, 16, 64)
	if err != nil {
		return nil, fmt.Errorf("bad fingerprint %q: %w", r.Fingerprint, err)
	}
	if r.NumComponents != len(r.ComponentWeights) {
		return nil, fmt.Errorf("numComponents %d but %d component weights", r.NumComponents, len(r.ComponentWeights))
	}
	return &answer{
		solver:     r.Solver,
		k:          r.K,
		fp:         fp,
		cut:        r.Cut,
		cutWeight:  r.CutWeight,
		bottleneck: r.Bottleneck,
		weights:    r.ComponentWeights,
		iterations: r.Stats.Iterations,
		cert:       r.Verify,
	}, nil
}

// near compares sums accumulated in possibly different orders.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkAnswer checks an answer's structure and feasibility against its
// request: echoed solver, K and fingerprint; a sorted, in-range cut whose
// weight and bottleneck match the cut edges; one component per cut edge plus
// one, summing to the graph's total weight, each within K (or exactly K
// components for part-count solvers); a certified certificate when verify
// was requested.
func checkAnswer(it *item, a *answer) error {
	switch {
	case a.solver != it.solver:
		return fmt.Errorf("solver %q answered for %q", a.solver, it.solver)
	case math.Float64bits(a.k) != math.Float64bits(it.k):
		return fmt.Errorf("K %v answered for %v", a.k, it.k)
	case a.fp != it.in.fp:
		return fmt.Errorf("fingerprint %016x answered for %016x", a.fp, it.in.fp)
	}
	m := it.in.numEdges()
	var sum, maxW float64
	for i, e := range a.cut {
		if e < 0 || e >= m || (i > 0 && e <= a.cut[i-1]) {
			return fmt.Errorf("cut is not sorted and within [0,%d): edge %d at position %d", m, e, i)
		}
		w := it.in.edgeWeight(e)
		sum += w
		maxW = math.Max(maxW, w)
	}
	if !near(a.cutWeight, sum) {
		return fmt.Errorf("cut weight %v, cut edges sum to %v", a.cutWeight, sum)
	}
	if a.bottleneck != maxW {
		return fmt.Errorf("bottleneck %v, heaviest cut edge %v", a.bottleneck, maxW)
	}
	if len(a.weights) != len(a.cut)+1 {
		return fmt.Errorf("%d component weights for a %d-edge cut", len(a.weights), len(a.cut))
	}
	var total float64
	for _, w := range a.weights {
		total += w
		if !partCount(it.solver) && w > it.k && !near(w, it.k) {
			return fmt.Errorf("component weight %v exceeds K = %v", w, it.k)
		}
	}
	if partCount(it.solver) && float64(len(a.weights)) != it.k {
		return fmt.Errorf("%d components for a %v-part request", len(a.weights), it.k)
	}
	if !near(total, it.in.total) {
		return fmt.Errorf("component weights sum to %v, graph weighs %v", total, it.in.total)
	}
	if it.verify && (a.cert == nil || !a.cert.Certified) {
		return fmt.Errorf("verify requested but certificate is %+v", a.cert)
	}
	return nil
}

func engineRequest(it *item) engine.Request {
	return engine.Request{Solver: it.solver, Path: it.in.path, Tree: it.in.tree, K: it.k}
}

// sameResult reports the first difference between the daemon's answer and
// the in-process engine result, bit for bit.
func sameResult(a *answer, res *engine.Result) error {
	bits := math.Float64bits
	switch {
	case a.solver != res.Solver:
		return fmt.Errorf("solver %q, engine %q", a.solver, res.Solver)
	case bits(a.k) != bits(res.K):
		return fmt.Errorf("K %v, engine %v", a.k, res.K)
	case !slices.Equal(a.cut, res.Cut):
		return fmt.Errorf("cut differs from the engine's (%d vs %d edges)", len(a.cut), len(res.Cut))
	case bits(a.cutWeight) != bits(res.CutWeight):
		return fmt.Errorf("cut weight %v, engine %v", a.cutWeight, res.CutWeight)
	case bits(a.bottleneck) != bits(res.Bottleneck):
		return fmt.Errorf("bottleneck %v, engine %v", a.bottleneck, res.Bottleneck)
	case !slices.EqualFunc(a.weights, res.ComponentWeights, func(x, y float64) bool { return bits(x) == bits(y) }):
		return fmt.Errorf("component weights differ from the engine's")
	case a.iterations != res.Stats.Iterations:
		return fmt.Errorf("iterations %d, engine %d", a.iterations, res.Stats.Iterations)
	}
	return nil
}

// sameCert compares a certificate the daemon returned with the one computed
// in-process.
func sameCert(got *certInfo, want *verify.Certificate) error {
	if got == nil {
		return nil
	}
	if got.Criterion != want.Criterion || got.Certified != want.Certified ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
		math.Float64bits(got.Bound) != math.Float64bits(want.Bound) || got.Detail != want.Detail {
		return fmt.Errorf("daemon certificate %+v, in-process %+v", *got, *want)
	}
	return nil
}

// sameAnswer compares two renderings of one result (JSON and PRS1).
func sameAnswer(a, b *answer) error {
	res := &engine.Result{Solver: b.solver, K: b.k, Cut: b.cut, CutWeight: b.cutWeight,
		Bottleneck: b.bottleneck, ComponentWeights: b.weights, Stats: engine.Stats{Iterations: b.iterations}}
	if err := sameResult(a, res); err != nil {
		return err
	}
	if a.fp != b.fp {
		return fmt.Errorf("fingerprint %016x vs %016x", a.fp, b.fp)
	}
	return nil
}

// twinCheck fetches the binary (PRS1) rendering of every sampled op that was
// answered in JSON — solves and job results — and requires it to match the
// JSON answer bit for bit. The frames feed the frame-decode layer.
func twinCheck(ctx context.Context, c *client, w *workload, outs []outcome, sampled []int) map[int]string {
	failed := map[int]string{}
	for _, i := range sampled {
		o, out := &w.ops[i], &outs[i]
		if !out.ok() || !(o.route == routeJob || o.route == routeSolve && o.json) {
			continue
		}
		it, a := &o.items[0], out.answers[0]
		body, err := server.AppendSolveRequest(nil, solveParams(it), it.in.graph())
		if err != nil {
			failed[i] = err.Error()
			continue
		}
		_, resp, err := c.exchange(ctx, http.MethodPost, "/v1/solve", codec.ContentType, codec.ContentType, body, http.StatusOK)
		if err != nil {
			failed[i] = "binary rendering: " + err.Error()
			continue
		}
		b, err := decodeFrame(resp)
		if err == nil {
			err = sameAnswer(a, b)
		}
		if err != nil {
			failed[i] = "binary rendering differs from JSON: " + err.Error()
			continue
		}
		a.frame = b.frame
	}
	return failed
}
