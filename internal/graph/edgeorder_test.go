package graph

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// TestEdgeBucketsWorstCases: the weights of core's oneBucketTree, distinct
// weights 1 + i·2⁻⁴⁰ in shuffled order and one edge of weight MaxFloat64,
// land in one bucket but the outlier's, as do all-equal weights, and the
// order built from that one bucket is still a stable sort by weight.
func TestEdgeBucketsWorstCases(t *testing.T) {
	seed := uint64(2026)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	var bk EdgeBuckets
	for trial := 0; trial < 20; trial++ {
		m := 49 + next(400)
		packed, equal := make([]Edge, m), make([]Edge, m)
		for i := range packed {
			j := next(i + 1) // an inside-out shuffle of 0..m−1
			packed[i].W, packed[j].W = packed[j].W, 1+float64(i)*0x1p-40
			equal[i].W = 7
		}
		packed[next(m)].W = math.MaxFloat64
		for name, edges := range map[string][]Edge{"one bucket": packed, "all equal": equal} {
			order := bk.sort(edges)
			widest := 0
			for b := range len(bk.start) - 1 {
				widest = max(widest, int(bk.start[b+1]-bk.start[b]))
			}
			if widest < m-1 {
				t.Fatalf("%s: widest bucket holds %d of %d edges, want all but one at most", name, widest, m)
			}
			want := make([]int32, m)
			for i := range want {
				want[i] = int32(i)
			}
			sort.SliceStable(want, func(a, b int) bool { return edges[want[a]].W < edges[want[b]].W })
			if !slices.Equal(order, want) {
				t.Fatalf("%s m=%d: bucketed order %v, stable sort %v", name, m, order, want)
			}
		}
	}
}
