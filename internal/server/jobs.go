package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// The async jobs API. A solve submitted as a job outlives its HTTP request:
// POST /v1/jobs answers 202 immediately with a job ID, the job waits in the
// job queue until the admission limiter has a slot no synchronous request is
// queued for, and the client follows along over GET /v1/jobs/{id}/events —
// a Server-Sent Events stream of state transitions and live solve-phase
// spans — or polls GET /v1/jobs/{id}. DELETE /v1/jobs/{id} cancels; the engine's context
// plumbing aborts the solver mid-loop. Results are retained for
// Config.JobRetention. Every submission is its own job; a job's solve
// resolves like a synchronous miss (see resolve) — cache, single-flight,
// cluster forwarding — so identical jobs and requests in flight at the same
// time share one solve under distinct job IDs.

// jobSubmitRequest is the JSON body of POST /v1/jobs: a solve request plus
// queue placement. Binary (PSV1) bodies carry the same solve fields and take
// the priority from the "priority" query parameter.
type jobSubmitRequest struct {
	solveRequest
	// Priority orders the job queue; higher runs first (default 0).
	Priority int `json:"priority,omitempty"`
}

// JobSubmitResponse is the 202 body of POST /v1/jobs.
type JobSubmitResponse struct {
	jobs.Snapshot
	// EventsURL is the job's SSE stream path.
	EventsURL string `json:"eventsUrl"`
}

// JobStatusResponse is the body of GET /v1/jobs/{id}: the snapshot, plus the
// solve result once the job succeeded.
type JobStatusResponse struct {
	jobs.Snapshot
	// Result is the same JSON object a synchronous /v1/solve would have
	// returned, present only in state "succeeded".
	Result json.RawMessage `json:"result,omitempty"`
	// Cached marks a result served from the result cache without a solve.
	Cached bool `json:"cached,omitempty"`
}

// jobResult is what a job's run closure returns: the rendered solve
// response.
type jobResult struct {
	body   []byte
	cached bool
}

// jobRun builds the closure a job runs once it holds a solve slot: resolve
// it as the job's caller (see caller.job), then render the JSON result. rid
// is the submitting request's ID, carried into solver logs and engine
// events for correlation.
func (s *Server) jobRun(p parsedSolve, rid string) jobs.RunFunc {
	return func(ctx context.Context, j *jobs.Job) (any, error) {
		ctx = obs.WithRequestID(ctx, rid)
		res, err := s.resolve(ctx, &p, caller{job: j})
		if err != nil {
			return nil, err
		}
		body, err := renderJSONResult(&res, p.req.Trace)
		if err != nil {
			return nil, err
		}
		return jobResult{body: body, cached: res.entry != nil}, nil
	}
}

// handleJobSubmit is POST /v1/jobs. The body is the same JSON or PSV1
// binary solve request /v1/solve takes; the response is a 202 with the job
// snapshot. TimeoutMs bounds the job's total lifetime (queue wait included)
// up to Config.MaxJobTimeout, which also serves as the default — jobs exist
// for solves too long for the synchronous deadline.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	p, priority, err := s.decodeSolve(r)
	if err != nil {
		s.writeError(w, requestErrStatus(err), err.Error())
		return
	}
	if pv := r.URL.Query().Get("priority"); pv != "" && isBinaryMedia(r.Header.Get("Content-Type")) {
		if priority, err = strconv.Atoi(pv); err != nil {
			s.writeError(w, http.StatusBadRequest, `bad "priority" query parameter: `+err.Error())
			return
		}
	}
	j, err := s.jobs.Submit(jobs.Spec{
		Priority: priority,
		Timeout:  requestTimeout(p.req.TimeoutMs, s.cfg.MaxJobTimeout, s.cfg.MaxJobTimeout),
		Run:      s.jobRun(p, obs.RequestIDFrom(r.Context())),
	})
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			s.writeError(w, http.StatusTooManyRequests, "job queue full")
		case errors.Is(err, jobs.ErrShuttingDown):
			s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		default:
			s.writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	body, _ := json.Marshal(JobSubmitResponse{
		Snapshot:  j.Snapshot(),
		EventsURL: "/v1/jobs/" + j.ID + "/events",
	})
	writeJSON(w, http.StatusAccepted, body)
}

// jobOr404 resolves the {id} path value, answering the 404 itself when the
// job is unknown (never submitted, or already swept by retention).
func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) *jobs.Job {
	j := s.jobs.Get(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
	}
	return j
}

// handleJobGet is GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	resp := JobStatusResponse{Snapshot: j.Snapshot()}
	if res, ok := j.Result(); ok {
		if jr, ok := res.(jobResult); ok {
			resp.Result = jr.body
			resp.Cached = jr.cached
		}
	}
	body, err := json.Marshal(resp)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleJobList is GET /v1/jobs: every retained job, newest first.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	type listResponse struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}
	snaps := s.jobs.List()
	if snaps == nil {
		snaps = []jobs.Snapshot{}
	}
	body, _ := json.Marshal(listResponse{Jobs: snaps})
	writeJSON(w, http.StatusOK, body)
}

// handleJobCancel is DELETE /v1/jobs/{id}: request cancellation and answer
// 202 with the job's snapshot. A queued job is terminal in the response; a
// running one transitions once it leaves its solve: at once when it waits on
// another caller's, else when the solver notices its context — or, when
// other callers share the solve it leads, when that solve ends.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	s.jobs.Cancel(j.ID)
	body, _ := json.Marshal(JobStatusResponse{Snapshot: j.Snapshot()})
	writeJSON(w, http.StatusAccepted, body)
}

// jobsKeepAlive is the SSE comment-ping cadence; it keeps idle streams from
// tripping proxy and LB idle timeouts between solve phases.
const jobsKeepAlive = 15 * time.Second

// eventCursor is the sequence number an SSE stream resumes after: the
// Last-Event-ID header, else the "after" query parameter, else 0.
func eventCursor(r *http.Request) (uint64, error) {
	cursor := r.Header.Get("Last-Event-ID")
	if cursor == "" {
		cursor = r.URL.Query().Get("after")
	}
	if cursor == "" {
		return 0, nil
	}
	return strconv.ParseUint(cursor, 10, 64)
}

// handleJobEvents is GET /v1/jobs/{id}/events: the job's progress as
// Server-Sent Events. Replay is cursor-based — the stream starts after the
// sequence number in Last-Event-ID (or the "after" query parameter), so a
// reconnecting client resumes exactly where it left off, with frames byte-
// identical to their first delivery while they remain in the job's event
// ring. The stream ends after the terminal state event.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	after, err := eventCursor(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad event cursor: "+err.Error())
		return
	}
	rc := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		return // streaming unsupported by the underlying writer
	}
	keepAlive := time.NewTicker(jobsKeepAlive)
	defer keepAlive.Stop()
	for {
		evs, notify, terminal := j.EventsSince(after)
		for _, ev := range evs {
			if err := jobs.WriteEvent(w, ev); err != nil {
				return
			}
			after = ev.Seq
		}
		if len(evs) > 0 {
			if err := rc.Flush(); err != nil {
				return
			}
		}
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-keepAlive.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		}
	}
}
