package obs

import (
	"context"
	"testing"
)

// The disabled path is the one every solver hot loop pays on every solve, so
// it must stay free: one context lookup, no allocations.
func BenchmarkStartSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "phase")
		SetAttr(sp, "n", i)
		sp.End()
	}
}

func BenchmarkStartSpanEnabled(b *testing.B) {
	tr := New("bench")
	ctx := NewContext(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "phase")
		sp.End()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(LatencyBuckets())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.0042)
		}
	})
}
