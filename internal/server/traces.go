package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// The flight-recorder query API. GET /v1/traces lists retained traces
// (newest first, filterable); GET /v1/traces/{id} returns one trace with its
// span tree, or — with ?format=chrome — as a Chrome trace-event document
// loadable in chrome://tracing and Perfetto. Both answer on every node; in a
// cluster each node serves the traces it retained, and a forwarded solve is
// retained on both sides under the same trace ID.

// offerTrace hands a finished request trace to the flight recorder and, when
// it was retained, links it as an exemplar to the solver's latency bucket for
// solved — the engine solve's own duration, which the histogram observed.
// The trace's duration would not do: it also spans the admission wait,
// certification and framing. Forwarded and shed requests ran no local solve
// (solved is 0) and get no exemplar. Nil-safe when the recorder is disabled.
func (s *Server) offerTrace(info flight.Info, solved time.Duration) {
	if rec, _ := s.recorder.Offer(info); rec != nil && solved > 0 {
		s.solvem.setExemplar(info.Solver, solved, rec.TraceID)
	}
}

// traceListResponse is the body of GET /v1/traces.
type traceListResponse struct {
	Enabled bool             `json:"enabled"`
	Total   int              `json:"total"` // retained traces resident in the store
	Traces  []*flight.Record `json:"traces"`
}

// handleTraceList is GET /v1/traces: the retained traces, newest first.
// Query parameters: solver, outcome (ok|error|shed), minDurationMs, since
// (either a look-back duration like "5m" or an RFC3339 timestamp), limit
// (default 100, capped at 1000).
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	resp := traceListResponse{Traces: []*flight.Record{}}
	if s.recorder == nil {
		body, _ := json.Marshal(&resp)
		writeJSON(w, http.StatusOK, body)
		return
	}
	resp.Enabled = true
	q := flight.Query{
		Solver:  r.URL.Query().Get("solver"),
		Outcome: r.URL.Query().Get("outcome"),
		Limit:   100,
	}
	if v := r.URL.Query().Get("minDurationMs"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 || math.IsNaN(ms) || math.IsInf(ms, 0) {
			s.writeError(w, http.StatusBadRequest, `"minDurationMs" must be a non-negative number`)
			return
		}
		// float64(math.MaxInt64) is 2^63: anything at or past it would wrap,
		// so it filters as the longest duration instead.
		q.MinDuration = math.MaxInt64
		if d := ms * float64(time.Millisecond); d < math.MaxInt64 {
			q.MinDuration = time.Duration(d)
		}
	}
	if v := r.URL.Query().Get("since"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			q.Since = time.Now().Add(-d)
		} else if ts, err := time.Parse(time.RFC3339, v); err == nil {
			q.Since = ts
		} else {
			s.writeError(w, http.StatusBadRequest, `"since" must be a look-back duration ("5m") or an RFC3339 timestamp`)
			return
		}
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.writeError(w, http.StatusBadRequest, `"limit" must be a positive integer`)
			return
		}
		q.Limit = n
	}
	if q.Limit > 1000 {
		q.Limit = 1000
	}
	if got := s.recorder.List(q); got != nil {
		resp.Traces = got
	}
	resp.Total = s.recorder.Stats().Traces
	body, _ := json.Marshal(&resp)
	writeJSON(w, http.StatusOK, body)
}

// traceGetResponse is the body of GET /v1/traces/{id}: the record plus its
// span tree.
type traceGetResponse struct {
	*flight.Record
	Tree json.RawMessage `json:"tree,omitempty"`
}

// handleTraceGet is GET /v1/traces/{id}. With ?format=chrome the span tree
// renders as a Chrome trace-event document instead of the JSON record.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		s.writeError(w, http.StatusNotFound, "flight recorder is disabled")
		return
	}
	rec, ok := s.recorder.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no retained trace with that ID (evicted or never recorded)")
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		var root obs.SpanNode
		if err := json.Unmarshal(rec.Tree, &root); err != nil {
			s.writeError(w, http.StatusInternalServerError, "stored span tree is unreadable: "+err.Error())
			return
		}
		meta := map[string]string{"traceId": rec.TraceID}
		if rec.RequestID != "" {
			meta["requestId"] = rec.RequestID
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		obs.WriteChromeNode(w, &root, meta)
		return
	}
	body, _ := json.Marshal(&traceGetResponse{Record: rec, Tree: rec.Tree})
	writeJSON(w, http.StatusOK, body)
}
