package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/version"
)

// Hand-rolled Prometheus text exposition (format version 0.0.4) — the repo
// is stdlib-only, and the counter surface is small enough that a client
// library buys nothing. Each fact has one series, fed by one source:
//
//   - solveMetrics, the server's only engine Observer: every per-solver
//     series, from the solve's own engine.Event (solvemetrics.go),
//   - the resolver's lookup counters: cache hits and misses by requester
//     tier (cluster.go),
//   - the cache, limiter and jobs snapshots: occupancy and evictions,
//   - the HTTP layer's own per-route request counters.

// httpMetrics counts requests by (route, status code) and tracks a per-route
// latency histogram, plus an in-flight gauge. Routes are the registered
// patterns, not raw URLs, so cardinality is bounded.
type httpMetrics struct {
	mu        sync.Mutex
	requests  map[string]map[int]uint64 // route → code → count
	durations map[string]*obs.Histogram // route → latency histogram
	inFlight  int64
}

func newHTTPMetrics() *httpMetrics {
	return &httpMetrics{
		requests:  make(map[string]map[int]uint64),
		durations: make(map[string]*obs.Histogram),
	}
}

func (m *httpMetrics) observe(route string, code int, d time.Duration) {
	m.mu.Lock()
	byCode := m.requests[route]
	if byCode == nil {
		byCode = make(map[int]uint64)
		m.requests[route] = byCode
	}
	byCode[code]++
	h := m.durations[route]
	if h == nil {
		h = obs.NewHistogram(obs.LatencyBuckets())
		m.durations[route] = h
	}
	m.mu.Unlock()
	h.ObserveDuration(d)
}

func (m *httpMetrics) addInFlight(d int64) {
	m.mu.Lock()
	m.inFlight += d
	m.mu.Unlock()
}

// snapshot returns a deep copy of the counters and histograms plus the
// in-flight gauge.
func (m *httpMetrics) snapshot() (map[string]map[int]uint64, map[string]obs.HistogramSnapshot, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]map[int]uint64, len(m.requests))
	for route, byCode := range m.requests {
		cp := make(map[int]uint64, len(byCode))
		for code, n := range byCode {
			cp[code] = n
		}
		out[route] = cp
	}
	hists := make(map[string]obs.HistogramSnapshot, len(m.durations))
	for route, h := range m.durations {
		hists[route] = h.Snapshot()
	}
	return out, hists, m.inFlight
}

// metricsSnapshot gathers everything one /metrics render needs, captured
// atomically enough for monitoring purposes.
type metricsSnapshot struct {
	cache             CacheStats
	limiter           LimiterStats
	http              map[string]map[int]uint64
	httpDurations     map[string]obs.HistogramSnapshot
	httpInFlight      int64
	verifyCertified   uint64
	verifyUncertified uint64
	uptime            time.Duration
}

// writeMetrics renders every gauge and counter in Prometheus text format,
// with series sorted for deterministic output (stable diffs, testable).
func writeMetrics(w io.Writer, snap metricsSnapshot) {
	cs, ls := snap.cache, snap.limiter
	http, httpInFlight := snap.http, snap.httpInFlight
	verifyCertified, verifyUncertified := snap.verifyCertified, snap.verifyUncertified
	uptime := snap.uptime

	series := func(metric, typ, help string, emit func()) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", metric, help, metric, typ)
		emit()
	}

	series("partitiond_cache_evictions_total", "counter", "Result cache LRU evictions.", func() {
		fmt.Fprintf(w, "partitiond_cache_evictions_total %d\n", cs.Evictions)
	})
	series("partitiond_cache_entries", "gauge", "Result cache resident entries.", func() {
		fmt.Fprintf(w, "partitiond_cache_entries %d\n", cs.Entries)
	})
	series("partitiond_cache_capacity", "gauge", "Result cache capacity in entries.", func() {
		fmt.Fprintf(w, "partitiond_cache_capacity %d\n", cs.Capacity)
	})

	series("partitiond_admission_in_flight", "gauge", "Solves currently holding an admission slot.", func() {
		fmt.Fprintf(w, "partitiond_admission_in_flight %d\n", ls.InFlight)
	})
	series("partitiond_admission_queued", "gauge", "Requests currently waiting for an admission slot.", func() {
		fmt.Fprintf(w, "partitiond_admission_queued %d\n", ls.Queued)
	})
	series("partitiond_admission_admitted_total", "counter", "Requests granted an admission slot.", func() {
		fmt.Fprintf(w, "partitiond_admission_admitted_total %d\n", ls.Admitted)
	})
	series("partitiond_admission_shed_queue_full_total", "counter", "Requests shed because the admission queue was full (HTTP 429).", func() {
		fmt.Fprintf(w, "partitiond_admission_shed_queue_full_total %d\n", ls.ShedQueueFull)
	})
	series("partitiond_admission_shed_deadline_total", "counter", "Requests that left the admission queue on deadline or disconnect.", func() {
		fmt.Fprintf(w, "partitiond_admission_shed_deadline_total %d\n", ls.ShedDeadline)
	})

	series("partitiond_verify_total", "counter", "Requested optimality certificates by outcome.", func() {
		fmt.Fprintf(w, "partitiond_verify_total{result=\"certified\"} %d\n", verifyCertified)
		fmt.Fprintf(w, "partitiond_verify_total{result=\"uncertified\"} %d\n", verifyUncertified)
	})

	series("partitiond_http_requests_total", "counter", "HTTP requests by route and status code.", func() {
		routes := make([]string, 0, len(http))
		for r := range http {
			routes = append(routes, r)
		}
		sort.Strings(routes)
		for _, r := range routes {
			codes := make([]int, 0, len(http[r]))
			for c := range http[r] {
				codes = append(codes, c)
			}
			sort.Ints(codes)
			for _, c := range codes {
				fmt.Fprintf(w, "partitiond_http_requests_total{route=%q,code=\"%d\"} %d\n", r, c, http[r][c])
			}
		}
	})
	series("partitiond_http_request_duration_seconds", "histogram", "HTTP request duration by route.", func() {
		routes := make([]string, 0, len(snap.httpDurations))
		for r := range snap.httpDurations {
			routes = append(routes, r)
		}
		sort.Strings(routes)
		for _, r := range routes {
			snap.httpDurations[r].WritePrometheus(w, "partitiond_http_request_duration_seconds", map[string]string{"route": r})
		}
	})
	series("partitiond_http_in_flight", "gauge", "HTTP requests currently being served.", func() {
		fmt.Fprintf(w, "partitiond_http_in_flight %d\n", httpInFlight)
	})
	series("partitiond_uptime_seconds", "gauge", "Seconds since the server started.", func() {
		fmt.Fprintf(w, "partitiond_uptime_seconds %g\n", uptime.Seconds())
	})
}

// writeObsMetrics renders the process-level observability families: build
// identity, Go runtime health, pool effectiveness, and the flight recorder's
// retention accounting.
func (s *Server) writeObsMetrics(w io.Writer) {
	series := func(metric, typ, help string, emit func()) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", metric, help, metric, typ)
		emit()
	}

	series("partitiond_build_info", "gauge", "Build identity; the value is always 1.", func() {
		fmt.Fprintf(w, "partitiond_build_info{version=%q,go_version=%q} 1\n",
			version.Version, version.GoVersion())
	})

	rs := obs.ReadRuntimeStats()
	series("partitiond_go_goroutines", "gauge", "Live goroutines.", func() {
		fmt.Fprintf(w, "partitiond_go_goroutines %d\n", rs.Goroutines)
	})
	series("partitiond_go_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.", func() {
		fmt.Fprintf(w, "partitiond_go_heap_alloc_bytes %d\n", rs.HeapAlloc)
	})
	series("partitiond_go_heap_sys_bytes", "gauge", "Heap memory obtained from the OS.", func() {
		fmt.Fprintf(w, "partitiond_go_heap_sys_bytes %d\n", rs.HeapSys)
	})
	series("partitiond_go_heap_objects", "gauge", "Live heap objects.", func() {
		fmt.Fprintf(w, "partitiond_go_heap_objects %d\n", rs.HeapObjects)
	})
	series("partitiond_go_gc_next_bytes", "gauge", "Heap size that triggers the next GC cycle.", func() {
		fmt.Fprintf(w, "partitiond_go_gc_next_bytes %d\n", rs.NextGC)
	})
	series("partitiond_go_gc_cycles_total", "counter", "Completed GC cycles.", func() {
		fmt.Fprintf(w, "partitiond_go_gc_cycles_total %d\n", rs.GCCycles)
	})
	series("partitiond_go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.", func() {
		fmt.Fprintf(w, "partitiond_go_gc_pause_seconds_total %g\n", rs.GCPauseTotal.Seconds())
	})
	series("partitiond_go_gc_cpu_fraction", "gauge", "Fraction of CPU time spent in GC since process start.", func() {
		fmt.Fprintf(w, "partitiond_go_gc_cpu_fraction %g\n", rs.GCCPUFraction)
	})

	series("partitiond_pool_requests_total", "counter", "Object-pool checkouts by pool and result (hit = recycled, new = allocated).", func() {
		gets, news := core.ScratchPoolStats()
		fmt.Fprintf(w, "partitiond_pool_requests_total{pool=\"solver-scratch\",result=\"hit\"} %d\n", gets-news)
		fmt.Fprintf(w, "partitiond_pool_requests_total{pool=\"solver-scratch\",result=\"new\"} %d\n", news)
	})

	if s.recorder == nil {
		return
	}
	st := s.recorder.Stats()
	series("partitiond_traces_offered_total", "counter", "Finished request traces offered to the flight recorder.", func() {
		fmt.Fprintf(w, "partitiond_traces_offered_total %d\n", st.Offered)
	})
	series("partitiond_traces_retained_total", "counter", "Traces retained by the flight recorder, by retention reason.", func() {
		for _, reason := range flight.Reasons() {
			fmt.Fprintf(w, "partitiond_traces_retained_total{reason=%q} %d\n", reason, st.KeptByReason[reason])
		}
	})
	series("partitiond_traces_dropped_total", "counter", "Traces offered but not retained (no retention rule matched).", func() {
		fmt.Fprintf(w, "partitiond_traces_dropped_total %d\n", st.Dropped)
	})
	series("partitiond_trace_store_evicted_total", "counter", "Retained traces evicted from the store, by cap that forced it.", func() {
		fmt.Fprintf(w, "partitiond_trace_store_evicted_total{cause=\"count\"} %d\n", st.EvictedCount)
		fmt.Fprintf(w, "partitiond_trace_store_evicted_total{cause=\"bytes\"} %d\n", st.EvictedBytes)
	})
	series("partitiond_trace_store_traces", "gauge", "Traces resident in the flight-recorder store.", func() {
		fmt.Fprintf(w, "partitiond_trace_store_traces %d\n", st.Traces)
	})
	series("partitiond_trace_store_bytes", "gauge", "Approximate bytes resident in the flight-recorder store.", func() {
		fmt.Fprintf(w, "partitiond_trace_store_bytes %d\n", st.Bytes)
	})
	series("partitiond_trace_store_capacity", "gauge", "Flight-recorder store caps, by dimension.", func() {
		fmt.Fprintf(w, "partitiond_trace_store_capacity{dimension=\"traces\"} %d\n", st.CapTraces)
		fmt.Fprintf(w, "partitiond_trace_store_capacity{dimension=\"bytes\"} %d\n", st.CapBytes)
	})
}

// writeJobsMetrics renders the async job subsystem's series. The
// partitiond_jobs_total family is labeled by state: the terminal states are
// cumulative counters, while "queued" and "running" are the current
// occupancy (which is why the family is declared a gauge).
func writeJobsMetrics(w io.Writer, st jobs.Stats) {
	series := func(metric, typ, help string, emit func()) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", metric, help, metric, typ)
		emit()
	}
	series("partitiond_jobs_total", "gauge", "Async jobs by state: current occupancy for queued/running, cumulative for terminal states.", func() {
		fmt.Fprintf(w, "partitiond_jobs_total{state=\"queued\"} %d\n", st.Queued)
		fmt.Fprintf(w, "partitiond_jobs_total{state=\"running\"} %d\n", st.Running)
		fmt.Fprintf(w, "partitiond_jobs_total{state=\"succeeded\"} %d\n", st.Succeeded)
		fmt.Fprintf(w, "partitiond_jobs_total{state=\"failed\"} %d\n", st.Failed)
		fmt.Fprintf(w, "partitiond_jobs_total{state=\"canceled\"} %d\n", st.Canceled)
	})
	series("partitiond_jobs_submitted_total", "counter", "Accepted job submissions.", func() {
		fmt.Fprintf(w, "partitiond_jobs_submitted_total %d\n", st.Submitted)
	})
	series("partitiond_jobs_queue_capacity", "gauge", "Job queue capacity.", func() {
		fmt.Fprintf(w, "partitiond_jobs_queue_capacity %d\n", st.QueueCap)
	})
	series("partitiond_jobs_retained", "gauge", "Jobs currently retained (all states).", func() {
		fmt.Fprintf(w, "partitiond_jobs_retained %d\n", st.Retained)
	})
}
