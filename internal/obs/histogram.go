package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram with lock-free Observe:
// per-bucket atomic counters plus an atomic float sum. Bucket semantics are
// Prometheus's — an observation v lands in the first bucket whose upper
// bound satisfies v <= bound, with one implicit +Inf overflow bucket.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// NewHistogram builds a histogram over the given upper bounds, which must be
// strictly increasing and non-empty; it panics otherwise (bucket layouts are
// build-time configuration, not request data).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: NewHistogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || (i > 0 && b <= bounds[i-1]) {
			panic(fmt.Sprintf("obs: bucket bounds must be strictly increasing, got %v at %d", b, i))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.buckets = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// LatencyBuckets returns the default log-spaced solve-latency layout:
// powers of two from 1µs to ~33.6s (26 buckets), matching the dynamic range
// between a cached microsolve and the server's maximum solve deadline.
func LatencyBuckets() []float64 {
	out := make([]float64, 26)
	b := 1e-6
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v, or overflow
	h.buckets[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		want := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, want) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// BucketIndex returns the bucket an observation of v would land in and the
// total bucket count (bounds + the +Inf overflow) — the addressing scheme
// exemplar slots use.
func (h *Histogram) BucketIndex(v float64) (idx, n int) {
	return sort.SearchFloat64s(h.bounds, v), len(h.buckets)
}

// Count returns the number of observations so far — the cheap accessor for
// callers that refresh derived state every N observations without paying for
// a full snapshot.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// HistogramSnapshot is a point-in-time copy of a histogram. Counts are
// per-bucket (not cumulative); the final entry is the +Inf bucket.
// Observations racing a snapshot may be split across Count/Sum/Counts — fine
// for a metrics scrape, do not use it for exact accounting.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// observation (0 < q <= 1), Prometheus-style: a conservative over-estimate
// with bucket-bound resolution. Returns +Inf when the quantile falls in the
// overflow bucket and 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || !(q > 0) {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		if cum >= target {
			return b
		}
	}
	return math.Inf(1)
}

// Exemplar links one histogram bucket to a recent observation's trace — the
// OpenMetrics "# {trace_id=\"...\"} value timestamp" suffix on a bucket line.
// A zero TraceID means "no exemplar for this bucket".
type Exemplar struct {
	TraceID string
	Value   float64
	Time    time.Time
}
