package graph

import (
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// Tree is a tree task graph: n vertices and exactly n−1 undirected weighted
// edges forming a spanning tree. This models the divide-and-conquer workloads
// of §1.
type Tree struct {
	// NodeW[i] is the processing requirement of task i.
	NodeW []float64
	// Edges are the n−1 data dependencies. Edge order is significant: cuts
	// index into this slice.
	Edges []Edge
	// frozen is set by Freeze and holds the shared rooted view.
	frozen *frozenTree
}

// frozenTree is what a frozen tree remembers: that it is valid, and its
// rooted view at vertex 0, built by the first Root0.
type frozenTree struct {
	once sync.Once
	rt   Rooted
}

// Arc is one direction of an undirected edge in an adjacency list.
type Arc struct {
	// To is the neighbouring vertex.
	To int
	// Edge is the index into Tree.Edges of the traversed edge.
	Edge int
}

// NewTree constructs and validates a tree task graph. Slices are copied.
func NewTree(nodeW []float64, edges []Edge) (*Tree, error) {
	return NewTreeOwned(
		append([]float64(nil), nodeW...),
		append([]Edge(nil), edges...),
	)
}

// NewTreeOwned constructs and validates a tree task graph that takes
// ownership of the argument slices without copying. The caller must not
// reuse the slices afterwards.
func NewTreeOwned(nodeW []float64, edges []Edge) (*Tree, error) {
	t := &Tree{NodeW: nodeW, Edges: edges}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// FillTree is FillPath for trees. The tree takes ownership of edges, which
// are checked as NewTree checks them.
func FillTree(nodeW []byte, edges []Edge) (*Tree, uint64, error) {
	t := &Tree{NodeW: make([]float64, len(nodeW)/8), Edges: edges}
	h := NewTreeHasher()
	if err := t.validate(&h, nodeW); err != nil {
		return nil, 0, err
	}
	h.Word(uint64(len(edges)))
	h.Edges(edges)
	return t, h.Sum(), nil
}

// Len returns the number of tasks (vertices).
func (t *Tree) Len() int { return len(t.NodeW) }

// NumEdges returns the number of edges.
func (t *Tree) NumEdges() int { return len(t.Edges) }

// Validate checks that the edge list forms a spanning tree over the vertices
// and that all weights are valid. A frozen tree was valid when it was frozen
// and has not changed since, so its Validate returns nil at once.
func (t *Tree) Validate() error {
	if t.frozen != nil {
		return nil
	}
	return t.validate(nil, nil)
}

// Freeze marks the valid tree t as shared and read-only: from here on
// Validate trusts it and Root0 builds its rooted view once for every
// caller. Freeze does not check t, and nothing may write to t's arrays
// afterwards, since concurrent readers share them. Clone gives a writable,
// unfrozen copy. Call Freeze before t is shared, not concurrently with its
// use.
func (t *Tree) Freeze() {
	if t.frozen == nil {
		t.frozen = new(frozenTree)
	}
}

// Frozen reports whether Freeze was called on t.
func (t *Tree) Frozen() bool { return t.frozen != nil }

// Root0 is Root(0, buf) for the tree solvers and oracles, which all root at
// vertex 0. A frozen tree builds that view once, on the first call, and
// returns the same view to every caller along with buf unchanged; the view
// is then shared, and callers must not write to it. Any other tree is
// rooted in buf as Root does.
func (t *Tree) Root0(buf []int32) (Rooted, []int32) {
	f := t.frozen
	if f == nil {
		return t.Root(0, buf)
	}
	f.once.Do(func() { f.rt, _ = t.Root(0, nil) })
	return f.rt, buf
}

// Footprint is the bytes a frozen t holds: its node and edge arrays plus
// the rooted view Root0 builds.
func (t *Tree) Footprint() int {
	n, m := len(t.NodeW), len(t.Edges)
	return 8*n + int(unsafe.Sizeof(Edge{}))*m + 4*(n+1+4*m+3*n)
}

// validate is Validate, or FillTree's checks when h is not nil.
func (t *Tree) validate(h *Hasher, nodeW []byte) error {
	n := len(t.NodeW)
	if n == 0 {
		return ErrEmptyGraph
	}
	if len(t.Edges) != n-1 {
		return fmt.Errorf("tree with %d nodes has %d edges, want %d: %w",
			n, len(t.Edges), n-1, ErrBadShape)
	}
	if err := checkWeights(h, "NodeW", t.NodeW, nodeW); err != nil {
		return err
	}
	uf := newUnionFind(n)
	for i, e := range t.Edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("edge %d endpoints (%d,%d) out of range [0,%d): %w",
				i, e.U, e.V, n, ErrBadShape)
		}
		if e.U == e.V {
			return fmt.Errorf("edge %d is a self-loop at %d: %w", i, e.U, ErrNotTree)
		}
		if !validWeight(e.W) {
			return fmt.Errorf("edge %d weight %v: %w", i, e.W, ErrBadWeight)
		}
		if !uf.union(e.U, e.V) {
			return fmt.Errorf("edge %d (%d,%d) closes a cycle: %w", i, e.U, e.V, ErrNotTree)
		}
	}
	return nil
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	return &Tree{
		NodeW: append([]float64(nil), t.NodeW...),
		Edges: append([]Edge(nil), t.Edges...),
	}
}

// TotalNodeWeight returns the sum of all task weights.
func (t *Tree) TotalNodeWeight() float64 { return SumWeights(t.NodeW) }

// MaxNodeWeight returns the largest task weight.
func (t *Tree) MaxNodeWeight() float64 { return MaxWeight(t.NodeW) }

// Adjacency returns the adjacency lists of the tree. adj[v] holds one Arc per
// incident edge of v.
func (t *Tree) Adjacency() [][]Arc {
	adj := make([][]Arc, len(t.NodeW))
	deg := make([]int, len(t.NodeW))
	for _, e := range t.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	for v := range adj {
		adj[v] = make([]Arc, 0, deg[v])
	}
	for i, e := range t.Edges {
		adj[e.U] = append(adj[e.U], Arc{To: e.V, Edge: i})
		adj[e.V] = append(adj[e.V], Arc{To: e.U, Edge: i})
	}
	return adj
}

// componentLabels returns, for each vertex, the index of its component in
// T − cut, along with the number of components. Labels follow the smallest
// contained vertex. The cut must be valid. A frozen tree labels in one walk
// over its cached rooted view (walkLabels) and renumbers the walk's labels;
// any other tree unites the uncut edges in a union-find, since rooting it
// first would cost about twice that.
func (t *Tree) componentLabels(cut []int) ([]int32, int, error) {
	if err := checkCut(cut, len(t.Edges)); err != nil {
		return nil, 0, err
	}
	if t.frozen != nil {
		label, next := t.walkLabels(cut, len(cut)+1)
		// next[l] is the final label of walk label l, assigned at the
		// component's first vertex.
		for i := range next {
			next[i] = -1
		}
		k := int32(0)
		for v, l := range label {
			if next[l] < 0 {
				next[l] = k
				k++
			}
			label[v] = next[l]
		}
		return label, int(k), nil
	}
	label, k := t.unionFindLabels(cut)
	return label, k, nil
}

// unionFindLabels is componentLabels by union-find, for any valid t and cut.
func (t *Tree) unionFindLabels(cut []int) ([]int32, int) {
	uf := newUnionFind(len(t.NodeW))
	// cut is strictly increasing: unite the runs of edges between cut edges.
	from := 0
	for _, c := range cut {
		for _, e := range t.Edges[from:c] {
			uf.union(e.U, e.V)
		}
		from = c + 1
	}
	for _, e := range t.Edges[from:] {
		uf.union(e.U, e.V)
	}
	// A root's slot takes its component's label at the component's first
	// vertex, and every other slot is written only when its own vertex is
	// labelled, so one column serves both.
	label := make([]int32, len(t.NodeW))
	for v := range label {
		label[v] = -1
	}
	k := 0
	for v := range label {
		r := uf.find(v)
		if label[r] < 0 {
			label[r] = int32(k)
			k++
		}
		label[v] = label[r]
	}
	return label, k
}

// walkLabels labels the components of T − cut, for a frozen t and a valid
// cut, by one walk down t's rooted view at vertex 0: the root and the child
// end of each cut edge open a component, in BFS order, and every other vertex
// takes its parent's label. The len(cut)+1 labels are numbered in the order
// the walk opens them. extra is spare int32s of scratch for the caller, cut
// from the same allocation.
func (t *Tree) walkLabels(cut []int, spare int) (label, extra []int32) {
	rt, _ := t.Root0(nil)
	n := len(t.NodeW)
	buf := make([]int32, n+spare)
	label, extra = buf[:n:n], buf[n:]
	// The child end of an edge is the endpoint whose parent is the other.
	for _, c := range cut {
		e := t.Edges[c]
		if int(rt.Parent[e.U]) == e.V {
			label[e.U] = -1
		} else {
			label[e.V] = -1
		}
	}
	k := int32(1) // the root, Order[0], keeps label 0
	for _, v := range rt.Order[1:] {
		if label[v] < 0 {
			label[v] = k
			k++
		} else {
			label[v] = label[rt.Parent[v]]
		}
	}
	return label, extra
}

// Components returns the vertex sets of the connected components of T − cut.
// Vertices within each component and the components themselves are ordered by
// smallest contained vertex.
func (t *Tree) Components(cut []int) ([][]int, error) {
	label, k, err := t.componentLabels(cut)
	if err != nil {
		return nil, err
	}
	comps := make([][]int, k)
	for v, l := range label {
		comps[l] = append(comps[l], v)
	}
	return comps, nil
}

// ComponentWeights returns the total task weight of each component of
// T − cut.
func (t *Tree) ComponentWeights(cut []int) ([]float64, error) {
	label, k, err := t.componentLabels(cut)
	if err != nil {
		return nil, err
	}
	ws := make([]float64, k)
	for v, l := range label {
		ws[l] += t.NodeW[v]
	}
	return ws, nil
}

// ComponentMaxNodeWeights returns, per component of T − cut, the heaviest
// single node weight, ordered like ComponentWeights. It is the per-processor
// cost vector of the sum-of-max criterion.
func (t *Tree) ComponentMaxNodeWeights(cut []int) ([]float64, error) {
	label, k, err := t.componentLabels(cut)
	if err != nil {
		return nil, err
	}
	ms := make([]float64, k)
	for i := range ms {
		ms[i] = math.Inf(-1)
	}
	for v, l := range label {
		if t.NodeW[v] > ms[l] {
			ms[l] = t.NodeW[v]
		}
	}
	return ms, nil
}

// MaxComponentWeight returns the heaviest component weight of T − cut. A
// frozen tree takes the maximum over the walk's labels as they come: each
// component is still summed in vertex order, and the maximum does not
// depend on the order of the components.
func (t *Tree) MaxComponentWeight(cut []int) (float64, error) {
	if t.frozen == nil {
		ws, err := t.ComponentWeights(cut)
		if err != nil {
			return 0, err
		}
		return MaxWeight(ws), nil
	}
	if err := checkCut(cut, len(t.Edges)); err != nil {
		return 0, err
	}
	label, _ := t.walkLabels(cut, 0)
	ws := make([]float64, len(cut)+1)
	for v, l := range label {
		ws[l] += t.NodeW[v]
	}
	return MaxWeight(ws), nil
}

// CutWeight returns δ(cut), the total weight of the cut edges.
func (t *Tree) CutWeight(cut []int) (float64, error) {
	if err := checkCut(cut, len(t.Edges)); err != nil {
		return 0, err
	}
	var s float64
	for _, e := range cut {
		s += t.Edges[e].W
	}
	return s, nil
}

// MaxCutEdgeWeight returns the bottleneck of the cut: the largest weight of
// any cut edge, or 0 for an empty cut.
func (t *Tree) MaxCutEdgeWeight(cut []int) (float64, error) {
	if err := checkCut(cut, len(t.Edges)); err != nil {
		return 0, err
	}
	var m float64
	for _, e := range cut {
		if t.Edges[e].W > m {
			m = t.Edges[e].W
		}
	}
	return m, nil
}

// Contraction is the result of contracting the components of T − cut into
// super-nodes (§2.2): a new tree whose vertices are the components and whose
// edges are exactly the original cut edges.
type Contraction struct {
	// Tree is the contracted super-node tree. Tree.Edges[i] corresponds to
	// the original edge CutEdges[i]. Super-nodes are numbered by smallest
	// contained vertex.
	Tree *Tree
	// CutEdges[i] is the original edge index behind contracted edge i.
	CutEdges []int
}

// Contract lumps each component of T − cut into a super-node whose weight is
// the component's total weight, producing the super-node tree used by the
// processor-minimization stage of the paper's pipeline (§2.2: "the resulting
// graph is still a tree"). t must be a valid tree. The contracted tree is
// then a tree by construction and its edges keep their valid weights, so the
// one check it needs is that no super-node sum overflowed to infinity.
func (t *Tree) Contract(cut []int) (*Contraction, error) {
	label, k, err := t.componentLabels(cut)
	if err != nil {
		return nil, err
	}
	nodeW := make([]float64, k)
	for v, l := range label {
		nodeW[l] += t.NodeW[v]
	}
	if err := checkWeights(nil, "NodeW", nodeW, nil); err != nil {
		return nil, fmt.Errorf("contract: %w", err)
	}
	edges := make([]Edge, len(cut))
	for i, e := range cut {
		orig := t.Edges[e]
		edges[i] = Edge{U: int(label[orig.U]), V: int(label[orig.V]), W: orig.W}
	}
	return &Contraction{
		Tree:     &Tree{NodeW: nodeW, Edges: edges},
		CutEdges: append([]int(nil), cut...),
	}, nil
}

// IsStar reports whether the tree is a star: one centre vertex adjacent to
// all others. Trees with at most 2 vertices count as stars.
func (t *Tree) IsStar() bool {
	n := len(t.NodeW)
	if n <= 2 {
		return true
	}
	deg := make([]int, n)
	for _, e := range t.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	centres := 0
	for _, d := range deg {
		switch {
		case d == n-1:
			centres++
		case d != 1:
			return false
		}
	}
	return centres == 1
}

// Degrees returns the degree of every vertex.
func (t *Tree) Degrees() []int {
	deg := make([]int, len(t.NodeW))
	for _, e := range t.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	return deg
}
