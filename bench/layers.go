package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hitting"
	"repro/internal/prime"
	"repro/internal/server"
	"repro/internal/verify"
)

// Per-layer measurement. The benchmark records spans around its own calls —
// socket ops and their job phases while driving the daemon, then a
// single-threaded in-process replay of sampled ops through each module's
// exported functions — keeps them in memory, and writes a Chrome trace-event
// file at the end. A layer's value is the median self time of its spans.

// span is one timed call across a layer boundary.
type span struct {
	name, attr string
	op         int // op id, -1 for none
	parent     int // index of the parent span, -1 for a root
	tid        int // client id for socket spans, replayTid for the replay
	start, end time.Duration
}

const replayTid = 100

// tracer keeps spans in memory. A nil *tracer records nothing, so untraced
// runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, op, parent, tid int, attr string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, attr: attr, op: op, parent: parent, tid: tid, start: now, end: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus its children's. Children of
// one span never overlap here (job phases and replay layers are
// sequential), so the sum is the time they cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.end - s.start
	}
	for _, s := range t.spans {
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// layerSelfMs groups the self times of the replay's layer spans by metric
// name: <span>_ms, and <span>_ms.<attr> as well where the span has an
// attribute (engine.solve_ms.bandwidth, prime.analyze_ms.1.2).
func (t *tracer) layerSelfMs() map[string][]float64 {
	out := map[string][]float64{}
	for i, d := range t.selfTimes() {
		s := t.spans[i]
		if s.tid != replayTid || s.parent < 0 {
			continue
		}
		ms := float64(d) / float64(time.Millisecond)
		out[s.name+"_ms"] = append(out[s.name+"_ms"], ms)
		if s.attr != "" {
			out[s.name+"_ms."+s.attr] = append(out[s.name+"_ms."+s.attr], ms)
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace-event file (chrome://tracing
// or https://ui.perfetto.dev open it).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		cat := "socket"
		if s.tid == replayTid {
			cat = "replay"
		}
		args := map[string]any{"span": i, "parent": s.parent, "op": s.op}
		if s.attr != "" {
			args["attr"] = s.attr
		}
		events[i] = event{Name: s.name, Cat: cat, Ph: "X", Pid: 1, Tid: s.tid, Args: args,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerOps is how many sampled ops the traced replay also runs through every
// decode layer and the bandwidth phases. The post-run check re-solves the
// whole sample either way.
const layerOps = 64

// bwStat is one replayed bandwidth solve's instance shape (paper §2.3: n
// tasks, p prime subpaths, r non-redundant edges, mean coverage q) and
// TEMP_S queue behaviour.
type bwStat struct {
	ratio           string
	p, r            int
	q, queueMean    float64
	collapses       int
	predictedPLogQN float64
}

// replayResult is what the post-run check and replay found.
type replayResult struct {
	failed   map[int]string // op index → first mismatch
	checked  int            // sampled ops re-solved and certified
	items    int
	bw       []bwStat
	latMs    []float64 // socket latency of each attributed op
	layersMs []float64 // its layers' summed self time
}

// postCheck re-solves the sampled ops in-process: every item's daemon answer
// must equal engine.Solve's result bit for bit, and verify.CertifyResult
// must certify it. With a tracer, the first layerOps ops also replay their
// request decode in both encodings, the PRS1 frame decode, and the
// bandwidth solver's two phases, each under its own span.
func postCheck(ctx context.Context, w *workload, outs []outcome, sampled []int, tr *tracer) *replayResult {
	res := &replayResult{failed: map[int]string{}}
	for _, i := range sampled {
		o, out := &w.ops[i], &outs[i]
		if !out.ok() {
			continue
		}
		layers := tr != nil && res.checked < layerOps
		root := tr.begin("replay.op", o.id, -1, replayTid, o.route.String())
		var attributed time.Duration
		var err error
		for j := range o.items {
			var d time.Duration
			if d, err = replayItem(ctx, o, &o.items[j], out, out.answers[j], tr, root, layers, res); err != nil {
				err = fmt.Errorf("post-run check of item %d: %w", j, err)
				break
			}
			attributed += d
			res.items++
		}
		tr.end(root)
		if err != nil {
			res.failed[i] = err.Error()
			continue
		}
		res.checked++
		if layers && o.route == routeSolve {
			res.latMs = append(res.latMs, float64(out.lat)/float64(time.Millisecond))
			res.layersMs = append(res.layersMs, float64(attributed)/float64(time.Millisecond))
		}
	}
	return res
}

// replayItem checks one item and, in layer mode, times its layers. It
// returns the self time of the layers the daemon ran for this item: the
// request decode in the op's own encoding, plus the solve and certificate
// when the daemon solved it locally.
func replayItem(ctx context.Context, o *op, it *item, out *outcome, a *answer, tr *tracer, root int, layers bool, res *replayResult) (time.Duration, error) {
	timed := func(name, attr string, f func() error) (time.Duration, error) {
		s := tr.begin(name, o.id, root, replayTid, attr)
		t := time.Now()
		err := f()
		d := time.Since(t)
		tr.end(s)
		return d, err
	}
	var attributed time.Duration
	if layers {
		jsonDec, binDec, err := replayDecode(it, timed)
		if err != nil {
			return 0, err
		}
		if o.json {
			attributed += jsonDec
		} else {
			attributed += binDec
		}
	}

	req := engineRequest(it)
	var er engine.Result
	solveT, err := timed("engine.solve", it.solver, func() (err error) {
		er, err = engine.Solve(ctx, req)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("engine.Solve: %w", err)
	}
	if err := sameResult(a, &er); err != nil {
		return 0, err
	}
	if layers && it.solver == "bandwidth" {
		st, err := replayBandwidth(it, timed)
		if err != nil {
			return 0, err
		}
		res.bw = append(res.bw, st)
	}

	var cert *verify.Certificate
	certT, err := timed("verify.certify", objectiveOf(it.solver), func() (err error) {
		cert, err = verify.CertifyResult(req, &er)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("verify.CertifyResult: %w", err)
	}
	if !cert.Certified {
		return 0, fmt.Errorf("not certified: %s", cert.Detail)
	}
	if err := sameCert(a.cert, cert); err != nil {
		return 0, err
	}

	if layers && a.frame != nil {
		if _, err := timed("server.frame_decode", "", func() error {
			_, _, err := server.DecodeSolveResult(a.frame)
			return err
		}); err != nil {
			return 0, err
		}
	}
	if o.route == routeSolve && !out.hit && !out.forwarded {
		attributed += solveT
		if it.verify {
			attributed += certT
		}
	}
	return attributed, nil
}

// replayDecode times both request decodes of the item's graph — the JSON
// route (envelope unmarshal with a raw graph field, graph.ReadJSON,
// graph.Fingerprint) and the binary one (codec.Decode, which fingerprints
// in the same pass) — and returns each route's total.
func replayDecode(it *item, timed func(string, string, func() error) (time.Duration, error)) (jsonT, binT time.Duration, err error) {
	body := jsonSolveBody(nil, it)
	var env struct {
		Solver string          `json:"solver"`
		K      float64         `json:"k"`
		Graph  json.RawMessage `json:"graph"`
		Verify bool            `json:"verify"`
	}
	var g any
	steps := []struct {
		name string
		f    func() error
	}{
		{"server.json_envelope", func() error { return json.Unmarshal(body, &env) }},
		{"graph.decode_json", func() (err error) {
			g, err = graph.ReadJSON(bytes.NewReader(env.Graph))
			return err
		}},
		{"graph.fingerprint", func() (err error) {
			_, err = graph.Fingerprint(g)
			return err
		}},
	}
	for _, s := range steps {
		d, err := timed(s.name, "", s.f)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", s.name, err)
		}
		jsonT += d
	}
	binT, err = timed("codec.decode", "", func() error {
		_, _, _, err := codec.Decode(it.in.bin, codec.Options{})
		return err
	})
	return jsonT, binT, err
}

// replayBandwidth times the paper's two phases separately — prime-subpath
// extraction and compression (the n term of O(n + p log q)) and the TEMP_S
// sweep (the p log q term) — and records the instance shape and queue
// behaviour from an instrumented, untimed second sweep.
func replayBandwidth(it *item, timed func(string, string, func() error) (time.Duration, error)) (bwStat, error) {
	p := it.in.path
	var inst *prime.Instance
	_, err := timed("prime.analyze", it.ratio, func() (err error) {
		inst, _, err = prime.Analyze(p.NodeW, p.EdgeW, it.k)
		return err
	})
	if err != nil {
		return bwStat{}, fmt.Errorf("prime.Analyze: %w", err)
	}
	hin := &hitting.Instance{Beta: inst.Beta, A: inst.A, B: inst.B}
	if _, err := timed("hitting.temps", it.ratio, func() error {
		_, err := hitting.SolveTempS(hin)
		return err
	}); err != nil {
		return bwStat{}, fmt.Errorf("hitting.SolveTempS: %w", err)
	}
	_, qt, err := hitting.SolveTempSInstrumented(hin)
	if err != nil {
		return bwStat{}, fmt.Errorf("hitting.SolveTempSInstrumented: %w", err)
	}
	sum := prime.Summarize(p.Len(), inst)
	return bwStat{
		ratio: it.ratio, p: sum.P, r: sum.R, q: sum.Q,
		queueMean: qt.MeanQueueLen(), collapses: qt.Collapses,
		// log2(q+1), not log2 q: with q = 1 each interval still costs one
		// step of the sweep.
		predictedPLogQN: float64(sum.P) * math.Log2(sum.Q+1) / float64(sum.N),
	}, nil
}

func objectiveOf(solver string) string {
	s, err := engine.Get(solver)
	if err != nil {
		return "unknown"
	}
	return engine.ObjectiveOf(s).String()
}

// layerMetrics computes the per-layer metrics: replay self times, bandwidth
// instance shape per K ratio, and the outcome splits read from response
// headers and batch item tags. A metric without samples on this workload is
// absent.
func layerMetrics(w *workload, outs []outcome, tr *tracer, rr *replayResult) map[string]float64 {
	m := map[string]float64{}
	for name, vals := range tr.layerSelfMs() {
		m[name] = median(vals)
	}

	byRatio := map[string][]bwStat{"": rr.bw}
	for _, s := range rr.bw {
		byRatio[s.ratio] = append(byRatio[s.ratio], s)
	}
	for ratio, sts := range byRatio {
		if len(sts) == 0 {
			continue
		}
		sfx := ""
		if ratio != "" {
			sfx = "." + ratio
		}
		var p, r, q, ql, coll, pred []float64
		for _, s := range sts {
			p = append(p, float64(s.p))
			r = append(r, float64(s.r))
			q = append(q, s.q)
			ql = append(ql, s.queueMean)
			coll = append(coll, float64(s.collapses))
			pred = append(pred, s.predictedPLogQN)
		}
		m["prime.p"+sfx] = mean(p)
		m["prime.r"+sfx] = mean(r)
		m["prime.q_mean"+sfx] = mean(q)
		m["hitting.queue_len_mean"+sfx] = mean(ql)
		m["hitting.collapses"+sfx] = mean(coll)
		if ratio != "" {
			m["hitting.temps_over_prime"+sfx] = m["hitting.temps_ms"+sfx] / m["prime.analyze_ms"+sfx]
			m["hitting.plogq_over_n"+sfx] = median(pred)
		}
	}
	if len(rr.latMs) > 0 {
		m["transport.unattributed_ms"] = mean(rr.latMs) - mean(rr.layersMs)
	}

	var solveLat, hitLat, batchLat, fwdLat, localLat, submit, wait, fetch []float64
	var solves, hits, forwarded, sent, shed, items, cached int
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for i, out := range outs {
		if out.sent {
			sent++
		}
		if out.status == 429 || out.status == 503 {
			shed++
		}
		if !out.ok() {
			continue
		}
		switch w.ops[i].route {
		case routeSolve:
			solves++
			solveLat = append(solveLat, ms(out.lat))
			if out.hit {
				hits++
				hitLat = append(hitLat, ms(out.lat))
			}
			if out.forwarded {
				forwarded++
				fwdLat = append(fwdLat, ms(out.lat))
			} else if w.nodes > 1 {
				localLat = append(localLat, ms(out.lat))
			}
		case routeBatch:
			batchLat = append(batchLat, ms(out.lat))
			items += out.items
			cached += out.cachedItems
		case routeJob:
			submit = append(submit, ms(out.jobSubmit))
			wait = append(wait, ms(out.jobWait))
			fetch = append(fetch, ms(out.jobFetch))
		}
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["server.hit_ratio"] = ratio(hits, solves)
	m["server.shed_rate"] = ratio(shed, sent)
	m["server.batch_cached_ratio"] = ratio(cached, items)
	m["cluster.forwarded_ratio"] = ratio(forwarded, solves)
	for name, vals := range map[string][]float64{
		"server.solve_p50_ms": solveLat, "server.hit_p50_ms": hitLat, "server.batch_p50_ms": batchLat,
		"cluster.forward_p50_ms": fwdLat, "cluster.local_p50_ms": localLat,
		"jobs.submit_ms": submit, "jobs.wait_ms": wait, "jobs.fetch_ms": fetch,
	} {
		if len(vals) > 0 {
			m[name] = median(vals)
		}
	}
	return m
}

// sortedKeys returns a map's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
