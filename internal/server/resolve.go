package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/verify"
)

// The solve path. /v1/solve, every /v1/batch item and every /v1/jobs run
// resolve one request the same way and produce the same artifact: the
// canonical PRS1 frame, which encodes a result losslessly (floats travel as
// their exact bits). The cache stores frames, keyed on the parameters that
// change the answer, and JSON responses render from the frame at the edge —
// so one solve serves every route and encoding. A JSON hit writes the cache
// entry's memo of its untraced body instead, which the first JSON hit fills
// (renderJSONResult).
//
// A miss resolves under a single-flight group keyed like the cache, so N
// identical concurrent misses perform one solve however the callers mix
// routes, encodings and jobs; the flight is the server's only dedup. It is
// reference-counted: a caller that leaves — a disconnected client, the end
// of a request's budget, a job DELETE or deadline — drops its reference, and
// a solve every caller left is canceled and fills no cache. With a cluster
// configured, a miss on a graph this node does not own is forwarded to its
// owner, which answers from its own cache and flight group; that makes the
// dedup cluster-wide.

// resolved is one solve's answer: the canonical frame plus how it was
// obtained. It is also the single-flight value every waiter shares.
type resolved struct {
	frame   []byte
	entry   *cacheEntry   // the entry a hit read, whose JSON memo it uses; nil on a miss
	shared  bool          // joined a concurrent identical miss
	via     string        // forwarding peer URL; empty for a local solve or a hit
	tree    *obs.SpanNode // non-nil for traced requests and remote-parented solves
	traceID string        // set alongside tree; rendered as the JSON traceId field
	solved  time.Duration // the local engine solve's own duration; 0 when none ran
}

// caller says who asked for a solve, which decides how its miss resolves.
type caller struct {
	// peer marks a request forwarded by another node: its lookup counts on
	// the peer tier, and its miss is solved here, never forwarded again.
	peer bool
	// job is set for an async job's solve, which resolves like a
	// synchronous miss under the job's own deadline: a forward asks the
	// owner for what is left of it, and a job with more left than
	// MaxTimeout (which the owner would clamp) solves here. The job holds
	// its dispatcher slot only while it solves here: it gives the slot back
	// before it joins another caller's flight or forwards, and takes one
	// again (jobs.Job.HoldSlot) when it must solve after all. A job that
	// joins gets no phase events. If the flight it joined ends on its
	// leader's budget (the synchronous deadline or a shed), the job
	// resolves again: it hits the cache, or leads or joins a fresh flight.
	job *jobs.Job
}

// httpError carries an HTTP status through the single-flight group, so shed
// decisions (429/503) made by a flight leader reach every joined waiter.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// resolve answers one parsed solve with its canonical frame: cache lookup,
// then the single-flight group, then resolveMiss, whose success fills the
// cache unless every caller has left. NoCache requests skip the cache and
// the flight. Traced requests skip the lookup and the flight, because a
// span tree describes one solve and cannot be replayed for another request,
// but still fill the cache. A synchronous caller waits at most syncBudget,
// also when it joins a job's flight.
func (s *Server) resolve(ctx context.Context, p *parsedSolve, c caller) (resolved, error) {
	key := newCacheKey(p.fp, p.req.Solver, p.req.K, p.req.MaxComponents, p.req.Verify)
	lookup := !p.req.NoCache && !p.req.Trace
	if lookup {
		if e, ok := s.cache.Get(key); ok {
			s.clusterm.observeLookup(c.peer, true)
			return resolved{frame: e.body, entry: e}, nil
		}
		s.clusterm.observeLookup(c.peer, false)
	}
	var onJoin func()
	if c.job != nil {
		onJoin = c.job.ReleaseSlot
	} else {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.syncBudget(p.req.TimeoutMs))
		defer cancel()
	}
	miss := func(ctx context.Context) (resolved, error) {
		res, err := s.resolveMiss(ctx, p, c)
		if err == nil && ctx.Err() == nil && !p.req.NoCache {
			s.cache.Put(key, res.frame)
		}
		return res, err
	}
	if !lookup {
		return miss(ctx)
	}
	res, shared, err := s.flight.DoContext(ctx, key, miss, onJoin)
	if c.job != nil && shared && leaderBound(err) && ctx.Err() == nil {
		return s.resolve(ctx, p, c) // the job outlives that flight's budget
	}
	res.shared = shared
	return res, err
}

// leaderBound reports whether a shared flight failed on its leader's budget
// — the solve deadline or an admission shed — rather than on the request.
func leaderBound(err error) bool {
	var he *httpError
	return errors.Is(err, context.DeadlineExceeded) || errors.As(err, &he)
}

// resolveMiss computes the frame for a cache miss: forwarded to the owning
// peer when a cluster is configured and this node does not own the graph, a
// local engine solve otherwise (and as the fallback for any failed forward).
//
// Every miss runs under a trace: the phase spans feed the per-phase metrics
// and the flight recorder whether or not the client asked for the tree back.
// Peer requests adopt the caller's propagated trace identity (same trace ID
// cluster-wide, this node's root parented under the caller's forward span);
// their tree travels back in the response trailer so the caller can graft
// it. The "solve " root-name prefix only matters when the tree is rendered
// into a response; skipping the concat keeps the untraced hot path one
// allocation cheaper.
func (s *Server) resolveMiss(ctx context.Context, p *parsedSolve, c caller) (resolved, error) {
	kind, name := "solve", p.req.Solver
	switch {
	case c.job != nil:
		kind, name = "job", "job "+p.req.Solver
	case p.req.Trace:
		name = "solve " + p.req.Solver
	}
	tr := obs.New(name)
	tr.RequestID = obs.RequestIDFrom(ctx)
	if c.job != nil {
		tr.OnSpan = c.job.PublishSpan
	}
	rem, hasRemote := obs.RemoteFromContext(ctx)
	if c.peer && hasRemote {
		tr.ID = rem.Trace
		tr.Parent = rem.Span
	} else {
		hasRemote = false
	}
	tctx := obs.NewContext(ctx, tr)

	var res resolved
	var err error
	forwarded := false
	if s.cluster != nil && !c.peer && !p.req.NoCache {
		if peer, local := s.cluster.Route(p.fp); !local {
			if ms, ok := s.forwardTimeoutMs(ctx, p, c); ok {
				if c.job != nil {
					c.job.ReleaseSlot() // the owner solves in a slot of its own
				}
				res, forwarded = s.forwardSolve(tctx, tr, p, peer, ms)
			}
		}
	}
	if !forwarded {
		res, err = s.solveLocal(tctx, p, c)
	}
	tr.Finish()
	if err == nil && (p.req.Trace || hasRemote) {
		res.tree = tr.Tree()
		res.traceID = tr.ID.String()
	}
	s.offerTrace(flight.Info{
		Trace:     tr,
		Kind:      kind,
		Solver:    p.req.Solver,
		Status:    errStatus(err),
		Err:       errMessage(err),
		Forwarded: forwarded,
		Remote:    hasRemote,
		Peer:      res.via,
	}, res.solved)
	return res, err
}

// solveLocal runs the engine for a miss on this node under the trace already
// in ctx: admission, solve, certification, and rendering into the canonical
// frame. Peer requests nest the solve under a remote-solve span so traces
// show which solves served the cluster rather than this node's own clients.
func (s *Server) solveLocal(ctx context.Context, p *parsedSolve, c caller) (resolved, error) {
	req := engine.Request{
		Solver:  p.req.Solver,
		K:       p.req.K,
		Options: engine.Options{MaxComponents: p.req.MaxComponents, Observer: s.solvem},
	}
	switch g := p.g.(type) {
	case *graph.Path:
		req.Path = g
	case *graph.Tree:
		req.Tree = g
	}
	if c.job != nil {
		if err := c.job.HoldSlot(ctx); err != nil {
			return resolved{}, err
		}
	} else {
		release, err := s.admit(ctx)
		if err != nil {
			return resolved{}, err
		}
		defer release()
		req.Options.Timeout = s.solveTimeoutOf(p.req.TimeoutMs)
	}
	ser := s.solvem.enter(p.req.Solver)
	defer s.solvem.exit(ser)
	if c.peer {
		var sp *obs.Span
		ctx, sp = obs.StartSpan(ctx, "remote-solve")
		defer sp.End()
	}
	res, err := engine.Solve(ctx, req)
	if err != nil {
		var pe *engine.PanicError
		if errors.As(err, &pe) {
			s.cfg.Logger.Error("solver panicked", "solver", pe.Solver, "panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
		}
		return resolved{solved: res.Stats.Duration}, err
	}
	var cert *verify.Certificate
	if p.req.Verify {
		cert = s.certifyResult(req, res)
	}
	return resolved{frame: appendSolveResult(nil, p.fp, res, cert), solved: res.Stats.Duration}, nil
}

// admit takes one solve slot from the limiter: a free slot at once, else a
// wait in the bounded queue under QueueTimeout, bounded also by ctx (which
// ends when the client disconnects). Shed outcomes come back as *httpError so
// they can travel through the single-flight group and be written by any
// waiter.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if release, ok := s.limiter.TryAcquire(); ok {
		return release, nil
	}
	qctx, qcancel := context.WithTimeout(ctx, s.cfg.QueueTimeout)
	release, aerr := s.limiter.Acquire(qctx)
	qcancel()
	if aerr != nil {
		if errors.Is(aerr, ErrQueueFull) {
			return nil, &httpError{status: http.StatusTooManyRequests, msg: "admission queue full"}
		}
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: "timed out waiting for a solve slot"}
	}
	return release, nil
}

// forwardTimeoutMs is the timeoutMs a forwarded miss asks the owner for:
// the request's own, or a job's remaining budget. ok is false for a job
// whose budget exceeds MaxTimeout, which the owner would clamp.
func (s *Server) forwardTimeoutMs(ctx context.Context, p *parsedSolve, c caller) (ms int64, ok bool) {
	if c.job == nil {
		return p.req.TimeoutMs, true
	}
	dl, ok := ctx.Deadline()
	left := time.Until(dl)
	if !ok || left > s.cfg.MaxTimeout {
		return 0, false
	}
	return max(left.Milliseconds(), 1), true
}

// solveTimeoutOf resolves the effective engine deadline for a requested
// timeoutMs: the server default when unset, clamped to the server maximum.
func (s *Server) solveTimeoutOf(ms int64) time.Duration {
	return requestTimeout(ms, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
}

// requestTimeout is the deadline for a request's timeoutMs: def when ms is
// not positive, and at most limit. It clamps in milliseconds before
// converting, so a timeoutMs past the time.Duration range cannot wrap to a
// negative or zero deadline.
func requestTimeout(ms int64, def, limit time.Duration) time.Duration {
	if ms > 0 {
		if ms > limit.Milliseconds() {
			return limit
		}
		def = time.Duration(ms) * time.Millisecond
	}
	return min(def, limit)
}

// syncBudget bounds a synchronous solve for a requested timeoutMs: the
// admission queue wait plus the solve deadline, with margin for a hop to
// the owning peer, which may queue and solve as long.
func (s *Server) syncBudget(ms int64) time.Duration {
	return s.solveTimeoutOf(ms) + s.cfg.QueueTimeout + 2*time.Second
}

// renderJSONResult renders the JSON solve response from a resolved frame.
// The span tree renders only when traced is set: a remote-parented miss also
// carries one (for the trailer), and it must not leak into untraced JSON.
// An untraced render of a cache hit returns the entry's memo, rendering and
// storing it first when it is empty; the stored body is clipped, so an
// append to it copies rather than writing into the shared array.
func renderJSONResult(res *resolved, traced bool) ([]byte, error) {
	memo := res.entry != nil && !traced
	if memo {
		if out := res.entry.json.Load(); out != nil {
			return *out, nil
		}
	}
	sr, rest, err := DecodeSolveResult(res.frame)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errBadFrame
	}
	var body SolveResponse
	body.Solver = sr.Solver
	body.K = sr.K
	body.Cut = sr.Cut
	body.CutWeight = sr.CutWeight
	body.Bottleneck = sr.Bottleneck
	body.ComponentWeights = sr.ComponentWeights
	body.NumComponents = len(sr.ComponentWeights)
	body.Fingerprint = fmt.Sprintf("%016x", sr.Fingerprint)
	body.Verify = sr.Verify
	if traced {
		body.Trace, body.TraceID = res.tree, res.traceID
	}
	body.Stats.DurationMs = sr.DurationMs
	body.Stats.Iterations = sr.Iterations
	out, err := json.Marshal(&body)
	if memo && err == nil {
		out = slices.Clip(out)
		res.entry.json.Store(&out)
	}
	return out, err
}

// errStatus maps a resolve error to the HTTP status it is written as:
// explicit HTTP statuses pass through, engine/solve errors map via
// solveStatus.
func errStatus(err error) int {
	if err == nil {
		return http.StatusOK
	}
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	return solveStatus(err)
}

func errMessage(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
