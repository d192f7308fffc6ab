package graph

import (
	"math"
	"math/bits"
	"slices"
)

// The weight order of a tree's edges. Algorithm 2.1 (§2.1) reads a tree's
// edges in increasing weight order, ties broken by index, −0 tying with +0.
// Tree.SortedEdges builds it without sorting the edges as a whole: two
// counting passes spread them over at most 2m buckets keyed by their weight
// bits, and each bucket is then sorted on its own. That is expected O(m)
// when the weights spread over the buckets and O(m log m) in the worst
// case, all weights in one bucket.

// weightKey maps a valid (non-negative) edge weight to its IEEE-754 bits,
// which order like the weights themselves; −0 is mapped to +0 so the two
// tie.
func weightKey(w float64) uint64 {
	if w == 0 {
		return 0
	}
	return math.Float64bits(w)
}

// EdgeBuckets is the scratch that Tree.SortedEdges builds an edge order in:
// the edges spread over weight buckets, bucket b holding
// order[start[b]:start[b+1]], every weight key in bucket b below every key
// in bucket b+1. Its arrays are reused, so a pooled EdgeBuckets allocates
// only on high-water marks.
type EdgeBuckets struct {
	order []int32
	start []int32
	// keys holds the packed sort keys of a large bucket.
	keys []uint64
	// Key k falls in bucket (k−lo)>>shift; idxBits is the bit length of
	// the edge count.
	lo             uint64
	shift, idxBits uint
}

// sort returns the indices of edges, whose weights must be valid, sorted by
// (weight, index), −0 tying with +0, in bk's order array.
func (bk *EdgeBuckets) sort(edges []Edge) []int32 {
	bk.fill(edges)
	for b := range len(bk.start) - 1 {
		bk.sortBucket(b, edges)
	}
	return bk.order
}

// fill spreads the indices of edges over at most 2m buckets by their weight
// keys, each bucket in index order: a min/max scan, then two counting
// passes.
func (bk *EdgeBuckets) fill(edges []Edge) {
	m := len(edges)
	bk.order = grow(bk.order, m)
	bk.idxBits = uint(bits.Len(uint(m)))
	if m == 0 {
		bk.start = append(bk.start[:0], 0)
		return
	}
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, e := range edges {
		key := weightKey(e.W)
		lo, hi = min(lo, key), max(hi, key)
	}
	// The smallest shift that fits the key span into 2m buckets.
	bk.shift = 0
	for (hi-lo)>>bk.shift >= uint64(2*m) {
		bk.shift++
	}
	bk.lo = lo
	nb := int((hi-lo)>>bk.shift) + 1
	bk.start = grow(bk.start, nb+1)
	start := bk.start
	clear(start)
	for _, e := range edges {
		start[(weightKey(e.W)-lo)>>bk.shift]++
	}
	for b := 1; b <= nb; b++ {
		start[b] += start[b-1]
	}
	// start[b] is now the end of bucket b. Scattering the edges from the
	// last down, with start[b] as bucket b's cursor, fills each bucket back
	// to front in index order and leaves start[b] at the bucket's start.
	for i := m - 1; i >= 0; i-- {
		b := (weightKey(edges[i].W) - lo) >> bk.shift
		start[b]--
		bk.order[start[b]] = int32(i)
	}
}

// insertionMax is the largest bucket sortBucket orders by insertion sort.
const insertionMax = 12

// sortBucket orders bucket b of edges by (weight, index), −0 tying with +0.
// A bucket comes out of fill in index order, so insertion sort on weight
// alone keeps ties in index order. Above insertionMax edges it sorts packed
// keys instead: a key's offset in its bucket is below 2^shift, and since
// the span of the keys reaches m·2^shift and stays below 2^63, offset and
// index fit one uint64 together, which slices.Sort orders without a
// comparison callback.
func (bk *EdgeBuckets) sortBucket(b int, edges []Edge) {
	bucket := bk.order[bk.start[b]:bk.start[b+1]]
	if len(bucket) <= insertionMax {
		for i := 1; i < len(bucket); i++ {
			x := bucket[i]
			wx := edges[x].W
			j := i
			for ; j > 0 && wx < edges[bucket[j-1]].W; j-- {
				bucket[j] = bucket[j-1]
			}
			bucket[j] = x
		}
		return
	}
	bk.keys = grow(bk.keys, len(bucket))
	keys := bk.keys
	offset := uint64(1)<<bk.shift - 1
	for j, e := range bucket {
		keys[j] = (weightKey(edges[e].W)-bk.lo)&offset<<bk.idxBits | uint64(e)
	}
	slices.Sort(keys)
	index := uint64(1)<<bk.idxBits - 1
	for j, key := range keys {
		bucket[j] = int32(key & index)
	}
}

// SortedEdges returns t's edge indices sorted by weight, ties by index and
// −0 tying with +0. A frozen tree builds the order once, on the first call,
// and returns the same order to every caller, who must not write to it;
// bk is then unused. Any other tree's order is built in bk, and the next
// SortedEdges on bk overwrites it; a nil bk builds it in a new one.
func (t *Tree) SortedEdges(bk *EdgeBuckets) []int32 {
	f := t.frozen
	if f == nil {
		if bk == nil {
			bk = new(EdgeBuckets)
		}
		return bk.sort(t.Edges)
	}
	f.orderOnce.Do(func() { f.order = new(EdgeBuckets).sort(t.Edges) })
	return f.order
}

// grow returns a slice of length n reusing s's capacity; entries are not
// cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
