package server

import (
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// slowRefreshEvery and slowMinCount pace the cached per-solver p99 slow
// threshold: it refreshes every slowRefreshEvery observations once at least
// slowMinCount have accumulated, so the flight recorder's adaptive "slow"
// rule reads an atomic instead of snapshotting a histogram per request.
const (
	slowRefreshEvery = 256
	slowMinCount     = 64
)

// solveSeries is one solver's metric state: the latency histogram (whose
// count and sum are the solve count and total solve time), the error,
// slowest-solve and iteration counters, phase totals, the live in-flight
// gauge, the cached adaptive slow threshold, and the per-bucket exemplars
// linking buckets to retained traces.
type solveSeries struct {
	hist       *obs.Histogram
	errors     atomic.Uint64
	maxNanos   atomic.Int64 // slowest single solve
	iterations atomic.Int64
	phases     map[string]obs.PhaseStat
	inFlight   atomic.Int64
	slowBits   atomic.Uint64  // float64 bits of the cached p99, in seconds
	refreshAt  atomic.Uint64  // histogram count that triggers the next refresh
	exemplars  []obs.Exemplar // len(bounds)+1, guarded by solveMetrics.mu
}

// solveMetrics is the server's only engine Observer: every solve the server
// runs — /v1/solve, batch items and jobs alike — hands it its engine.Event,
// and every per-solver series on /metrics (latency histogram, errors,
// slowest solve, iterations, phases, in-flight) is rendered from it. The
// histograms and counters are lock-free; the mutex only guards the map that
// lazily creates one series per solver, the phase totals, and the exemplar
// slots.
type solveMetrics struct {
	mu     sync.Mutex
	series map[string]*solveSeries
}

func newSolveMetrics() *solveMetrics {
	return &solveMetrics{series: make(map[string]*solveSeries)}
}

// seriesFor returns (creating if needed) the series for a solver.
func (m *solveMetrics) seriesFor(solver string) *solveSeries {
	m.mu.Lock()
	ser := m.series[solver]
	if ser == nil {
		ser = &solveSeries{
			hist:   obs.NewHistogram(obs.LatencyBuckets()),
			phases: make(map[string]obs.PhaseStat),
		}
		ser.refreshAt.Store(slowMinCount)
		m.series[solver] = ser
	}
	m.mu.Unlock()
	return ser
}

// Observe records one solve event.
func (m *solveMetrics) Observe(ev engine.Event) {
	ser := m.seriesFor(ev.Solver)
	if len(ev.Phases) > 0 {
		m.mu.Lock()
		for name, ps := range ev.Phases {
			agg := ser.phases[name]
			agg.Count += ps.Count
			agg.Total += ps.Total
			ser.phases[name] = agg
		}
		m.mu.Unlock()
	}
	ser.hist.ObserveDuration(ev.Stats.Duration)
	if ev.Err != nil {
		ser.errors.Add(1)
	}
	ser.iterations.Add(ev.Stats.Iterations)
	for d := int64(ev.Stats.Duration); ; {
		cur := ser.maxNanos.Load()
		if d <= cur || ser.maxNanos.CompareAndSwap(cur, d) {
			break
		}
	}
	// Refresh the cached p99 on a sparse schedule. The CAS makes one racing
	// observer do the snapshot; everyone else keeps the fast path.
	if n := ser.hist.Count(); n >= slowMinCount {
		at := ser.refreshAt.Load()
		if n >= at && ser.refreshAt.CompareAndSwap(at, n+slowRefreshEvery) {
			ser.slowBits.Store(math.Float64bits(ser.hist.Snapshot().Quantile(0.99)))
		}
	}
}

// slowFor is the flight recorder's adaptive threshold hook: the cached p99
// for the solver, 0 until enough observations exist. Alloc-free and cheap —
// it runs on every solve's Offer.
func (m *solveMetrics) slowFor(solver string) time.Duration {
	m.mu.Lock()
	ser := m.series[solver]
	m.mu.Unlock()
	if ser == nil {
		return 0
	}
	sec := math.Float64frombits(ser.slowBits.Load())
	if !(sec > 0) || sec > 1e6 { // unset, or the +Inf overflow bucket
		return 0
	}
	return time.Duration(sec * float64(time.Second))
}

// enter/exit bracket a local engine solve for the in-flight gauges.
func (m *solveMetrics) enter(solver string) *solveSeries {
	ser := m.seriesFor(solver)
	ser.inFlight.Add(1)
	return ser
}

func (m *solveMetrics) exit(ser *solveSeries) { ser.inFlight.Add(-1) }

// setExemplar links the histogram bucket d falls in to a retained trace, so
// /metrics can point straight from a latency bucket to /v1/traces/{id}.
func (m *solveMetrics) setExemplar(solver string, d time.Duration, traceID string) {
	if traceID == "" {
		return
	}
	ser := m.seriesFor(solver)
	idx, n := ser.hist.BucketIndex(d.Seconds())
	m.mu.Lock()
	if ser.exemplars == nil {
		ser.exemplars = make([]obs.Exemplar, n)
	}
	ser.exemplars[idx] = obs.Exemplar{TraceID: traceID, Value: d.Seconds(), Time: time.Now()}
	m.mu.Unlock()
}

// writeTo renders the solve histogram (with exemplars), the per-solver
// counters, and the in-flight and phase series, sorted for deterministic
// output. Exemplars and phase totals are copied under the lock; histograms
// and counters read lock-free.
func (m *solveMetrics) writeTo(p *obs.PromWriter) {
	type row struct {
		name      string
		ser       *solveSeries
		exemplars []obs.Exemplar
		phases    map[string]obs.PhaseStat
	}
	m.mu.Lock()
	rows := make([]row, 0, len(m.series))
	for _, name := range sortedKeys(m.series) {
		ser := m.series[name]
		rows = append(rows, row{name, ser, slices.Clone(ser.exemplars), maps.Clone(ser.phases)})
	}
	m.mu.Unlock()

	p.Family("partitiond_solve_duration_seconds", "histogram", "Solve wall time by solver.")
	for _, r := range rows {
		p.Histogram("partitiond_solve_duration_seconds", r.ser.hist.Snapshot(), r.exemplars, "solver", r.name)
	}
	p.Family("partitiond_solver_errors_total", "counter", "Solves that returned an error, by solver.")
	for _, r := range rows {
		p.Sample("partitiond_solver_errors_total", r.ser.errors.Load(), "solver", r.name)
	}
	p.Family("partitiond_solver_latency_seconds_max", "gauge", "Slowest single solve by solver.")
	for _, r := range rows {
		p.Sample("partitiond_solver_latency_seconds_max", time.Duration(r.ser.maxNanos.Load()).Seconds(), "solver", r.name)
	}
	p.Family("partitiond_solver_iterations_total", "counter", "Solver main-loop iterations by solver.")
	for _, r := range rows {
		p.Sample("partitiond_solver_iterations_total", r.ser.iterations.Load(), "solver", r.name)
	}
	p.Family("partitiond_solver_in_flight", "gauge", "Engine solves currently running, by solver.")
	for _, r := range rows {
		p.Sample("partitiond_solver_in_flight", r.ser.inFlight.Load(), "solver", r.name)
	}
	p.Family("partitiond_solve_phase_seconds_total", "counter", "Time spent inside each solver phase span.")
	for _, r := range rows {
		for _, phase := range sortedKeys(r.phases) {
			p.Sample("partitiond_solve_phase_seconds_total", r.phases[phase].Total.Seconds(), "solver", r.name, "phase", phase)
		}
	}
	p.Family("partitiond_solve_phase_count_total", "counter", "Phase spans recorded, by solver and phase.")
	for _, r := range rows {
		for _, phase := range sortedKeys(r.phases) {
			p.Sample("partitiond_solve_phase_count_total", r.phases[phase].Count, "solver", r.name, "phase", phase)
		}
	}
}
