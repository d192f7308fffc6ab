package server

import (
	"cmp"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/version"
)

// GET /metrics renders the Prometheus text exposition through
// obs.PromWriter. Each fact has one series, fed by one source:
//
//   - solveMetrics, the server's only engine Observer: every per-solver
//     series, from the solve's own engine.Event (solvemetrics.go),
//   - the resolver's lookup counters: cache hits and misses by requester
//     tier (cluster.go),
//   - the cache, graph store, limiter, jobs, flight-recorder and cluster
//     stats, read from their owners at scrape time,
//   - the HTTP layer's own per-route request counters.

// routeMetrics is one route's HTTP series: request counts by status code and
// the latency histogram. routes() builds one per route label and instrument
// holds it, so the request path takes no shared lock and looks nothing up.
type routeMetrics struct {
	hist  *obs.Histogram
	codes [900]atomic.Uint64 // by status code - 100; net/http allows 100..999
}

func (m *routeMetrics) observe(code int, d time.Duration) {
	m.codes[code-100].Add(1)
	m.hist.ObserveDuration(d)
}

// sortedKeys returns m's keys in ascending order, for deterministic output.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// single writes a family holding one unlabeled sample.
func single(p *obs.PromWriter, name, typ, help string, v any) {
	p.Family(name, typ, help)
	p.Sample(name, v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)

	cs := s.cache.Stats()
	single(p, "partitiond_cache_evictions_total", "counter", "Result cache LRU evictions.", cs.Evictions)
	single(p, "partitiond_cache_entries", "gauge", "Result cache resident entries.", cs.Entries)
	single(p, "partitiond_cache_capacity", "gauge", "Result cache capacity in entries.", cs.Capacity)

	gs := s.graphs.stats()
	p.Family("partitiond_graph_store_total", "counter", "Graph store lookups by the request decoders, by result.")
	p.Sample("partitiond_graph_store_total", gs.Hits, "result", "hit")
	p.Sample("partitiond_graph_store_total", gs.Misses, "result", "miss")
	p.Sample("partitiond_graph_store_total", gs.TextHits, "result", "text")
	single(p, "partitiond_graph_store_bytes", "gauge", "Bytes of frozen graphs resident in the graph store, rooted views included.", gs.Bytes)

	ls := s.limiter.Stats()
	single(p, "partitiond_admission_in_flight", "gauge", "Solves currently holding an admission slot.", ls.InFlight)
	single(p, "partitiond_admission_queued", "gauge", "Requests currently waiting for an admission slot.", ls.Queued)
	single(p, "partitiond_admission_admitted_total", "counter", "Requests granted an admission slot.", ls.Admitted)
	single(p, "partitiond_admission_shed_queue_full_total", "counter", "Requests shed because the admission queue was full (HTTP 429).", ls.ShedQueueFull)
	single(p, "partitiond_admission_shed_deadline_total", "counter", "Requests that left the admission queue on deadline or disconnect.", ls.ShedDeadline)

	p.Family("partitiond_verify_total", "counter", "Requested optimality certificates by outcome.")
	p.Sample("partitiond_verify_total", s.verifyCertified.Load(), "result", "certified")
	p.Sample("partitiond_verify_total", s.verifyUncertified.Load(), "result", "uncertified")

	routes := sortedKeys(s.httpm)
	p.Family("partitiond_http_requests_total", "counter", "HTTP requests by route and status code.")
	for _, route := range routes {
		codes := &s.httpm[route].codes
		for i := range codes {
			if n := codes[i].Load(); n > 0 {
				p.Sample("partitiond_http_requests_total", n, "route", route, "code", strconv.Itoa(i+100))
			}
		}
	}
	p.Family("partitiond_http_request_duration_seconds", "histogram", "HTTP request duration by route.")
	for _, route := range routes {
		if snap := s.httpm[route].hist.Snapshot(); snap.Count > 0 {
			p.Histogram("partitiond_http_request_duration_seconds", snap, nil, "route", route)
		}
	}
	single(p, "partitiond_http_in_flight", "gauge", "HTTP requests currently being served.", s.httpInFlight.Load())
	single(p, "partitiond_uptime_seconds", "gauge", "Seconds since the server started.", time.Since(s.started).Seconds())

	// partitiond_jobs_total is labeled by state: the terminal states are
	// cumulative counters, while "queued" and "running" are the current
	// occupancy (which is why the family is declared a gauge).
	js := s.jobs.Stats()
	p.Family("partitiond_jobs_total", "gauge", "Async jobs by state: current occupancy for queued/running, cumulative for terminal states.")
	p.Sample("partitiond_jobs_total", js.Queued, "state", "queued")
	p.Sample("partitiond_jobs_total", js.Running, "state", "running")
	p.Sample("partitiond_jobs_total", js.Succeeded, "state", "succeeded")
	p.Sample("partitiond_jobs_total", js.Failed, "state", "failed")
	p.Sample("partitiond_jobs_total", js.Canceled, "state", "canceled")
	single(p, "partitiond_jobs_submitted_total", "counter", "Accepted job submissions.", js.Submitted)
	single(p, "partitiond_jobs_queue_capacity", "gauge", "Job queue capacity.", js.QueueCap)
	single(p, "partitiond_jobs_retained", "gauge", "Jobs currently retained (all states).", js.Retained)

	s.solvem.writeTo(p)
	s.writeClusterMetrics(p)
	s.writeObsMetrics(p)
}

// writeObsMetrics renders the process-level families: build identity, Go
// runtime health, pool effectiveness, and the flight recorder's retention
// accounting.
func (s *Server) writeObsMetrics(p *obs.PromWriter) {
	p.Family("partitiond_build_info", "gauge", "Build identity; the value is always 1.")
	p.Sample("partitiond_build_info", 1, "version", version.Version, "go_version", version.GoVersion())

	rs := obs.ReadRuntimeStats()
	single(p, "partitiond_go_goroutines", "gauge", "Live goroutines.", rs.Goroutines)
	single(p, "partitiond_go_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.", rs.HeapAlloc)
	single(p, "partitiond_go_heap_sys_bytes", "gauge", "Heap memory obtained from the OS.", rs.HeapSys)
	single(p, "partitiond_go_heap_objects", "gauge", "Live heap objects.", rs.HeapObjects)
	single(p, "partitiond_go_gc_next_bytes", "gauge", "Heap size that triggers the next GC cycle.", rs.NextGC)
	single(p, "partitiond_go_gc_cycles_total", "counter", "Completed GC cycles.", rs.GCCycles)
	single(p, "partitiond_go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.", rs.GCPauseTotal.Seconds())
	single(p, "partitiond_go_gc_cpu_fraction", "gauge", "Fraction of CPU time spent in GC since process start.", rs.GCCPUFraction)

	gets, news := core.ScratchPoolStats()
	p.Family("partitiond_pool_requests_total", "counter", "Object-pool checkouts by pool and result (hit = recycled, new = allocated).")
	p.Sample("partitiond_pool_requests_total", gets-news, "pool", "solver-scratch", "result", "hit")
	p.Sample("partitiond_pool_requests_total", news, "pool", "solver-scratch", "result", "new")

	if s.recorder == nil {
		return
	}
	st := s.recorder.Stats()
	single(p, "partitiond_traces_offered_total", "counter", "Finished request traces offered to the flight recorder.", st.Offered)
	p.Family("partitiond_traces_retained_total", "counter", "Traces retained by the flight recorder, by retention reason.")
	for _, reason := range flight.Reasons() {
		p.Sample("partitiond_traces_retained_total", st.KeptByReason[reason], "reason", reason)
	}
	single(p, "partitiond_traces_dropped_total", "counter", "Traces offered but not retained (no retention rule matched).", st.Dropped)
	p.Family("partitiond_trace_store_evicted_total", "counter", "Retained traces evicted from the store, by cap that forced it.")
	p.Sample("partitiond_trace_store_evicted_total", st.EvictedCount, "cause", "count")
	p.Sample("partitiond_trace_store_evicted_total", st.EvictedBytes, "cause", "bytes")
	single(p, "partitiond_trace_store_traces", "gauge", "Traces resident in the flight-recorder store.", st.Traces)
	single(p, "partitiond_trace_store_bytes", "gauge", "Approximate bytes resident in the flight-recorder store.", st.Bytes)
	p.Family("partitiond_trace_store_capacity", "gauge", "Flight-recorder store caps, by dimension.")
	p.Sample("partitiond_trace_store_capacity", st.CapTraces, "dimension", "traces")
	p.Sample("partitiond_trace_store_capacity", st.CapBytes, "dimension", "bytes")
}
