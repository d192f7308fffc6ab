package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/verify"
)

// The wire format. Graphs travel in the graph package's JSON envelope
// ({"kind":"path","nodeWeights":...,"edgeWeights":...}); everything else is
// flat JSON. Durations cross the wire in milliseconds.

// solveRequest is the body of POST /v1/solve and one element of a batch.
// Requests are decoded by the one-pass decoder in jsonreq.go, which reads
// the graph straight into its arrays; Graph is the field's wire form for
// clients that marshal this struct.
type solveRequest struct {
	// Solver is the registry name (see GET /v1/solvers).
	Solver string `json:"solver"`
	// K is the execution-time bound; must be positive and finite.
	K float64 `json:"k"`
	// Graph is the task graph in the graph-JSON envelope.
	Graph json.RawMessage `json:"graph"`
	// MaxComponents caps the component count for solvers that support it.
	MaxComponents int `json:"maxComponents,omitempty"`
	// TimeoutMs overrides the server's default solve deadline, capped at
	// the server's maximum.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// NoCache bypasses the result cache for this request (both lookup and
	// fill) — the load-testing and debugging escape hatch.
	NoCache bool `json:"noCache,omitempty"`
	// Verify runs the solver-independent optimality certificate on the
	// result (see internal/verify) and reports it in the response.
	Verify bool `json:"verify,omitempty"`
	// Trace returns the solve's phase-span tree in the response, and
	// always runs a fresh solve: a tree describes one solve and is never
	// replayed from the cache. Honored on /v1/solve and /v1/jobs; batch
	// items ignore it (each item is traced for the flight recorder anyway).
	Trace bool `json:"trace,omitempty"`
}

// SolveResponse is the body of a successful solve, rendered from the cached
// PRS1 frame. Hits render the same bytes as the original answer, so Stats
// describe the solve that produced the result; the X-Cache header says which
// case the caller got.
type SolveResponse struct {
	Solver           string    `json:"solver"`
	K                float64   `json:"k"`
	Cut              []int     `json:"cut"`
	CutWeight        float64   `json:"cutWeight"`
	Bottleneck       float64   `json:"bottleneck"`
	ComponentWeights []float64 `json:"componentWeights"`
	NumComponents    int       `json:"numComponents"`
	Fingerprint      string    `json:"fingerprint"`
	// Verify is present only when the request asked for verification; cached
	// hits replay the certificate of the original solve (the cache key
	// includes the verify flag, so unverified entries never satisfy a
	// verified request).
	Verify *verify.Certificate `json:"verify,omitempty"`
	// Trace is the solve's span tree, present only when the request set
	// "trace" (such requests always solve afresh).
	Trace *obs.SpanNode `json:"trace,omitempty"`
	// TraceID is the distributed trace identifier, present alongside Trace.
	// When the flight recorder retained the trace it is retrievable at
	// /v1/traces/{traceId} after the fact.
	TraceID string `json:"traceId,omitempty"`
	Stats   struct {
		DurationMs float64 `json:"durationMs"`
		Iterations int64   `json:"iterations"`
	} `json:"stats"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// batchRequest is the body of POST /v1/batch.
type batchRequest struct {
	Requests []solveRequest `json:"requests"`
	// TimeoutMs is the default per-item deadline for items without one.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// batchItem is one batch answer: exactly one of Result or Error is set.
// Result carries the same bytes a /v1/solve for that item would return.
type batchItem struct {
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Cached bool            `json:"cached,omitempty"`
}

type batchResponse struct {
	Items []batchItem `json:"items"`
	Stats struct {
		Requests  int     `json:"requests"`
		Solved    int     `json:"solved"`
		Failed    int     `json:"failed"`
		CacheHits int     `json:"cacheHits"`
		WallMs    float64 `json:"wallMs"`
	} `json:"stats"`
}

// parsedSolve is a decoded, validated solve item ready for the engine. Both
// request decoders fill req, the record a PSV1 frame encodes.
type parsedSolve struct {
	req SolveParams
	g   any    // *graph.Path or *graph.Tree
	fp  uint64 // graph fingerprint
}

// errNodeLimit marks a graph whose node count exceeds Config.MaxNodes; it
// maps to 413 like the body-size and codec limits.
var errNodeLimit = errors.New("node count exceeds the server limit")

// checkItem is the one check of a decoded solve item, shared by the JSON
// and binary request paths: its parameters, then its graph — gerr, the
// error that decoding it left (nil when it decoded), then its kind. Errors
// are client errors.
func checkItem(req SolveParams, g any, fp uint64, gerr error) (parsedSolve, error) {
	if err := checkSolveParams(req); err != nil {
		return parsedSolve{}, err
	}
	if gerr != nil {
		return parsedSolve{}, gerr
	}
	switch g.(type) {
	case *graph.Path, *graph.Tree:
		return parsedSolve{req: req, g: g, fp: fp}, nil
	}
	return parsedSolve{}, fmt.Errorf(`graph kind %T is not solvable; send "path" or "tree"`, g)
}

// checkSolveParams validates the non-graph solve parameters.
func checkSolveParams(req SolveParams) error {
	if req.Solver == "" {
		return errors.New(`"solver" is required`)
	}
	if !(req.K > 0) || math.IsInf(req.K, 0) {
		return fmt.Errorf(`"k" must be positive and finite (got %v)`, req.K)
	}
	if req.MaxComponents < 0 {
		return fmt.Errorf(`"maxComponents" must be non-negative (got %d)`, req.MaxComponents)
	}
	if req.TimeoutMs < 0 {
		return fmt.Errorf(`"timeoutMs" must be non-negative (got %d)`, req.TimeoutMs)
	}
	// An unknown name fails here, with the registry's own error, before
	// admission: it never takes a solve slot or creates metric series.
	_, err := engine.Get(req.Solver)
	return err
}

// readBody drains a request body into a pooled buffer. The caller returns
// the buffer via s.bufPool.Put once the bytes are no longer referenced
// (decoded graphs never alias the body — weights are copied out).
func (s *Server) readBody(r *http.Request) (*bytes.Buffer, error) {
	buf := s.bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		s.bufPool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// certifyResult runs the optimality certificate for a solved request and
// bumps the server's verify counters. A solver without a registered
// objective is reported as an uncertified response rather than an error —
// the caller asked a question the certificate machinery cannot answer, and
// the Detail field says so.
func (s *Server) certifyResult(req engine.Request, res engine.Result) *verify.Certificate {
	cert, err := verify.CertifyResult(req, &res)
	if err != nil {
		s.verifyUncertified.Add(1)
		return &verify.Certificate{Certified: false, Detail: err.Error()}
	}
	if cert.Certified {
		s.verifyCertified.Add(1)
	} else {
		s.verifyUncertified.Add(1)
	}
	return cert
}

// writeJSON writes a JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

// writeBody writes a solve/batch response in the negotiated format: the
// binary media type raw, or JSON with a trailing newline.
func writeBody(w http.ResponseWriter, status int, body []byte, bin bool) {
	if bin {
		w.Header().Set("Content-Type", codec.ContentType)
		w.WriteHeader(status)
		w.Write(body)
		return
	}
	writeJSON(w, status, body)
}

// requestErrStatus maps a request-decoding error to its HTTP status: limit
// violations (body cap, declared node count, codec size guard) are 413,
// everything else a plain 400.
func requestErrStatus(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe),
		errors.Is(err, codec.ErrTooLarge),
		errors.Is(err, errNodeLimit):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
	}
	body, _ := json.Marshal(errorResponse{Error: msg})
	writeJSON(w, status, body)
}

// solveStatus maps an engine/solve error to an HTTP status.
func solveStatus(err error) int {
	switch {
	case errors.Is(err, engine.ErrUnknownSolver),
		errors.Is(err, engine.ErrBadRequest),
		errors.Is(err, core.ErrBadBound):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log line.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// decodeSolve decodes the body of /v1/solve and /v1/jobs: a PSV1 frame when
// the Content-Type names the binary type, JSON otherwise. A JSON body may
// also carry a job priority, returned alongside; binary bodies carry none.
// Bytes after the request, bar whitespace after JSON, are a client error.
// Errors map to a status via requestErrStatus.
func (s *Server) decodeSolve(r *http.Request) (p parsedSolve, priority int, err error) {
	buf, err := s.readBody(r)
	if err != nil {
		return p, 0, fmt.Errorf("bad request body: %w", err)
	}
	defer s.bufPool.Put(buf)
	if !isBinaryMedia(r.Header.Get("Content-Type")) {
		return s.parseSolveJSON(buf.Bytes())
	}
	p, rest, err := s.parseBinarySolve(buf.Bytes())
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes after the solve frame", len(rest))
	}
	return p, 0, err
}

// handleSolve is POST /v1/solve: decode (JSON, or the binary frame when
// Content-Type says so) → resolve → render. The response is binary when the
// Accept header names the binary type, except traced solves, which always
// answer in JSON.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	p, _, err := s.decodeSolve(r)
	if err != nil {
		s.writeError(w, requestErrStatus(err), err.Error())
		return
	}
	internal := r.Header.Get(cluster.InternalHeader) != ""
	ctx := r.Context()
	var hasRemote bool
	if internal {
		// Adopt propagated trace context — internal hops only, so external
		// callers cannot inject trace identity. A malformed header is ignored:
		// the solve still runs, just under a fresh local trace.
		if rem, ok := obs.ParseTraceHeader(r.Header.Get(cluster.TraceHeader)); ok {
			ctx = obs.ContextWithRemote(ctx, rem)
			hasRemote = true
		}
	}
	res, err := s.resolve(ctx, &p, caller{peer: internal})
	if err != nil {
		s.writeError(w, errStatus(err), err.Error())
		return
	}
	wantBin := acceptsBinary(r.Header.Get("Accept")) && !p.req.Trace
	out := res.frame
	if !wantBin {
		if out, err = renderJSONResult(&res, p.req.Trace); err != nil {
			s.writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	if res.entry != nil {
		w.Header().Set("X-Cache", "HIT")
		writeBody(w, http.StatusOK, out, wantBin)
		return
	}
	if s.cluster != nil {
		if res.via != "" {
			w.Header().Set("X-Cluster", "forwarded "+res.via)
		} else {
			w.Header().Set("X-Cluster", "local")
		}
	}
	if res.shared {
		w.Header().Set("X-Singleflight", "shared")
	}
	// Remote-parented internal solves return their span tree in a trailer so
	// the caller grafts it under its cluster-forward span. A trailer keeps
	// the PRS1 body byte-identical to an untraced forward; it must be
	// declared before the body and set after.
	var trailerSpans string
	if internal && hasRemote && res.tree != nil {
		if spans, jerr := json.Marshal(res.tree); jerr == nil {
			trailerSpans = base64.StdEncoding.EncodeToString(spans)
			w.Header().Set("Trailer", cluster.SpansTrailer)
		}
	}
	w.Header().Set("X-Cache", "MISS")
	writeBody(w, http.StatusOK, out, wantBin)
	if trailerSpans != "" {
		w.Header().Set(cluster.SpansTrailer, trailerSpans)
	}
}

// batchOutcome is one item's fate before rendering: exactly one of body or
// errMsg is set. body is already in the response format (JSON object or
// PRS1 frame).
type batchOutcome struct {
	body   []byte
	errMsg string
	cached bool
}

// decodeBatch decodes the body of /v1/batch — the PBT1 frame or JSON — into
// per-item parsed solves. The slices are parallel: errMsgs[i] non-empty
// means item i failed to parse. Errors reject the whole batch and map to a
// status via requestErrStatus.
func (s *Server) decodeBatch(r *http.Request) (parsed []parsedSolve, errMsgs []string, timeoutMs int64, err error) {
	buf, err := s.readBody(r)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("bad request body: %w", err)
	}
	defer s.bufPool.Put(buf)
	if isBinaryMedia(r.Header.Get("Content-Type")) {
		return s.parseBinaryBatch(buf.Bytes())
	}
	items, timeoutMs, err := s.parseBatchJSON(buf.Bytes())
	if err != nil {
		return nil, nil, 0, err
	}
	switch n := len(items); {
	case n == 0:
		return nil, nil, 0, errors.New(`"requests" must be non-empty`)
	case n > maxBatchRequests:
		return nil, nil, 0, fmt.Errorf("batch of %d exceeds the %d-request limit", n, maxBatchRequests)
	case timeoutMs < 0:
		return nil, nil, 0, fmt.Errorf(`"timeoutMs" must be non-negative (got %d)`, timeoutMs)
	}
	parsed = make([]parsedSolve, len(items))
	errMsgs = make([]string, len(items))
	for i := range items {
		if parsed[i], err = validateItem(&items[i]); err != nil {
			errMsgs[i] = err.Error()
		}
	}
	return parsed, errMsgs, timeoutMs, nil
}

// handleBatch is POST /v1/batch: every item resolves like its own /v1/solve
// — cache, single-flight, forward or local solve, each local solve admitted
// by the limiter — at most MaxConcurrent items at a time. An item that cannot
// get a solve slot fails alone with the shed message. Like solve, the request
// may be JSON or the PBT1 binary frame, and the response format follows
// Accept. Item trace flags are ignored; each item's solve is retained by the
// flight recorder under the request ID plus "#" and its index.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	start := time.Now()
	wantBin := acceptsBinary(r.Header.Get("Accept"))
	parsed, errMsgs, timeoutMs, err := s.decodeBatch(r)
	if err != nil {
		s.writeError(w, requestErrStatus(err), err.Error())
		return
	}

	n := len(parsed)
	outcomes := make([]batchOutcome, n)
	rid := obs.RequestIDFrom(r.Context())
	slots := make(chan struct{}, s.cfg.MaxConcurrent)
	var wg sync.WaitGroup
	for i := range parsed {
		if errMsgs[i] != "" {
			outcomes[i].errMsg = errMsgs[i]
			continue
		}
		p := &parsed[i]
		p.req.Trace = false
		if p.req.TimeoutMs == 0 {
			p.req.TimeoutMs = timeoutMs
		}
		slots <- struct{}{}
		wg.Add(1)
		go func(i int, p *parsedSolve) {
			defer func() { <-slots; wg.Done() }()
			ctx := obs.WithRequestID(r.Context(), rid+"#"+strconv.Itoa(i))
			res, err := s.resolve(ctx, p, caller{})
			body := res.frame
			if err == nil && !wantBin {
				body, err = renderJSONResult(&res, false)
			}
			if err != nil {
				outcomes[i].errMsg = err.Error()
				return
			}
			outcomes[i] = batchOutcome{body: body, cached: res.entry != nil}
		}(i, p)
	}
	wg.Wait()
	wallMs := float64(time.Since(start)) / float64(time.Millisecond)
	var solved, failed, hits int
	for _, o := range outcomes {
		switch {
		case o.errMsg != "":
			failed++
		case o.cached:
			solved++
			hits++
		default:
			solved++
		}
	}

	if wantBin {
		out := appendBatchHeader(nil, n, solved, failed, hits, wallMs, n)
		for i := range outcomes {
			o := &outcomes[i]
			tag := byte(wireItemResult)
			body := o.body
			switch {
			case o.errMsg != "":
				tag, body = wireItemError, []byte(o.errMsg)
			case o.cached:
				tag = wireItemCached
			}
			out = appendBatchItem(out, tag, body)
		}
		writeBody(w, http.StatusOK, out, true)
		return
	}

	var resp batchResponse
	resp.Items = make([]batchItem, n)
	resp.Stats.Requests = n
	resp.Stats.Solved = solved
	resp.Stats.Failed = failed
	resp.Stats.CacheHits = hits
	resp.Stats.WallMs = wallMs
	for i := range outcomes {
		o := &outcomes[i]
		if o.errMsg != "" {
			resp.Items[i] = batchItem{Error: o.errMsg}
		} else {
			resp.Items[i] = batchItem{Result: o.body, Cached: o.cached}
		}
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// solverInfo is one row of GET /v1/solvers.
type solverInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Objective is the criterion the solver optimizes and the certificate
	// machinery can certify ("bandwidth", "bottleneck", "minprocs"), or
	// "unknown" when the solver declares none.
	Objective string `json:"objective"`
}

// limitsInfo publishes the server's operational limits so clients can size
// requests (and pick the sync vs jobs route) without trial and error.
type limitsInfo struct {
	MaxNodes         int   `json:"maxNodes"`
	MaxBodyBytes     int64 `json:"maxBodyBytes"`
	MaxBatchRequests int   `json:"maxBatchRequests"`
	MaxConcurrent    int   `json:"maxConcurrent"`
	MaxQueue         int   `json:"maxQueue"`
	DefaultTimeoutMs int64 `json:"defaultTimeoutMs"`
	MaxTimeoutMs     int64 `json:"maxTimeoutMs"`
	JobQueue         int   `json:"jobQueue"`
	JobRetentionMs   int64 `json:"jobRetentionMs"`
	MaxJobTimeoutMs  int64 `json:"maxJobTimeoutMs"`
}

// solversResponse is the body of GET /v1/solvers: the registry plus the
// server's limits, and — when clustering is configured — a cluster summary
// (full detail lives at GET /v1/cluster).
type solversResponse struct {
	Solvers []solverInfo     `json:"solvers"`
	Limits  limitsInfo       `json:"limits"`
	Cluster *clusterEnvelope `json:"cluster,omitempty"`
}

func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	names := engine.Names()
	out := make([]solverInfo, 0, len(names))
	for _, name := range names {
		sol, err := engine.Get(name)
		if err != nil {
			continue // unregistered between Names and Get; skip
		}
		out = append(out, solverInfo{
			Name:      name,
			Kind:      sol.Kind().String(),
			Objective: engine.ObjectiveOf(sol).String(),
		})
	}
	jc := s.jobs.Config()
	var env *clusterEnvelope
	if s.cluster != nil {
		st := s.cluster.Status()
		env = &clusterEnvelope{Enabled: true, Self: st.Self, Size: len(st.Peers), Alive: st.Alive}
	}
	body, _ := json.Marshal(solversResponse{
		Solvers: out,
		Cluster: env,
		Limits: limitsInfo{
			MaxNodes:         s.cfg.MaxNodes,
			MaxBodyBytes:     s.cfg.MaxBodyBytes,
			MaxBatchRequests: maxBatchRequests,
			MaxConcurrent:    s.cfg.MaxConcurrent,
			MaxQueue:         s.cfg.MaxQueue,
			DefaultTimeoutMs: s.cfg.DefaultTimeout.Milliseconds(),
			MaxTimeoutMs:     s.cfg.MaxTimeout.Milliseconds(),
			JobQueue:         jc.QueueCap,
			JobRetentionMs:   jc.Retention.Milliseconds(),
			MaxJobTimeoutMs:  s.cfg.MaxJobTimeout.Milliseconds(),
		},
	})
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptimeSeconds"`
		Solvers       int     `json:"solvers"`
	}
	h := health{Status: "ok", UptimeSeconds: time.Since(s.started).Seconds(), Solvers: len(engine.Names())}
	status := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	body, _ := json.Marshal(h)
	writeJSON(w, status, body)
}
