package graph

// Columnar adjacency for tree task graphs. The pointer-free CSR (compressed
// sparse row) layout replaces the [][]Arc adjacency of Adjacency() on the
// solver hot paths: three flat int32 columns carved out of a single backing
// allocation, so building it costs O(1) allocations (zero when a pooled
// buffer is recycled) instead of one slice per vertex, and traversals walk
// contiguous memory.

// CSR is the columnar adjacency view of a tree: the arcs incident to vertex
// v are the index range Off[v]..Off[v+1] of the To/EIdx columns.
type CSR struct {
	// Off[v] is the first arc of vertex v; Off has length n+1.
	Off []int32
	// To[a] is the neighbouring vertex of arc a.
	To []int32
	// EIdx[a] is the index into Tree.Edges of the edge behind arc a.
	EIdx []int32
}

// Arcs returns the arc index range [lo, hi) of vertex v.
func (c *CSR) Arcs(v int) (lo, hi int32) { return c.Off[v], c.Off[v+1] }

// BuildCSR builds the columnar adjacency of t, reusing buf as backing
// storage when it is large enough. It returns the view and the (possibly
// grown) backing buffer, which the caller can pool for the next build. The
// tree must be structurally valid (endpoints in range); BuildCSR performs no
// validation of its own.
func (t *Tree) BuildCSR(buf []int32) (CSR, []int32) {
	n := len(t.NodeW)
	m := len(t.Edges)
	need := (n + 1) + 2*m + 2*m
	if cap(buf) < need {
		buf = make([]int32, need)
	}
	buf = buf[:need]
	off := buf[: n+1 : n+1]
	to := buf[n+1 : n+1+2*m : n+1+2*m]
	eidx := buf[n+1+2*m:]
	for i := range off {
		off[i] = 0
	}
	// Counting sort over edge endpoints: degree histogram, exclusive prefix
	// sums, then scatter both arc directions.
	for _, e := range t.Edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// next[v] tracks the write cursor per vertex; reuse the off column by
	// shifting as we scatter (off[v] is restored to the range start because
	// each vertex receives exactly its degree).
	for i, e := range t.Edges {
		to[off[e.U]] = int32(e.V)
		eidx[off[e.U]] = int32(i)
		off[e.U]++
		to[off[e.V]] = int32(e.U)
		eidx[off[e.V]] = int32(i)
		off[e.V]++
	}
	// Undo the cursor shift: off[v] now holds the end of v's range, which is
	// the start of v+1's. Walk backwards to restore starts.
	for v := n; v > 0; v-- {
		off[v] = off[v-1]
	}
	off[0] = 0
	return CSR{Off: off, To: to, EIdx: eidx}, buf
}
