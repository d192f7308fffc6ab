package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	// Prometheus le semantics: v lands in the first bucket with v <= bound.
	h.Observe(0.0005) // bucket 0
	h.Observe(0.001)  // exactly on the bound -> bucket 0
	h.Observe(0.0011) // bucket 1
	h.Observe(0.1)    // bucket 2
	h.Observe(5)      // +Inf overflow
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-(0.0005+0.001+0.0011+0.1+5)) > 1e-12 {
		t.Errorf("sum = %v", s.Sum)
	}
}

func TestLatencyBuckets(t *testing.T) {
	b := LatencyBuckets()
	if len(b) != 26 {
		t.Fatalf("len = %d, want 26", len(b))
	}
	if b[0] != 1e-6 {
		t.Errorf("first bound = %v, want 1µs", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Errorf("bound %d = %v, want 2x previous %v", i, b[i], b[i-1])
		}
	}
	if b[len(b)-1] < 30 {
		t.Errorf("last bound %vs does not cover the 30s+ deadline range", b[len(b)-1])
	}
	// The layout must be accepted by NewHistogram.
	NewHistogram(b).ObserveDuration(time.Millisecond)
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	const goroutines, per = 32, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g%7) * 1e-4)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total = %d, count = %d", total, s.Count)
	}
	wantSum := 0.0
	for g := 0; g < goroutines; g++ {
		wantSum += float64(g%7) * 1e-4 * per
	}
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestNewHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}
