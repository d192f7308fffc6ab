package graph

import (
	"fmt"
	"sort"
)

// Graph is a general undirected task graph used by the application substrates
// (process graphs of logic simulations, §3) before they are approximated by a
// linear or tree super-graph.
type Graph struct {
	// NodeW[i] is the processing requirement of task i.
	NodeW []float64
	// Edges are the data dependencies. Parallel edges are permitted until
	// MergeParallel is called; self-loops are never permitted.
	Edges []Edge
}

// NewGraph constructs and validates a general task graph. Slices are copied.
func NewGraph(nodeW []float64, edges []Edge) (*Graph, error) {
	return NewGraphOwned(
		append([]float64(nil), nodeW...),
		append([]Edge(nil), edges...),
	)
}

// NewGraphOwned constructs and validates a general task graph that takes
// ownership of the argument slices without copying. The caller must not
// reuse the slices afterwards.
func NewGraphOwned(nodeW []float64, edges []Edge) (*Graph, error) {
	g := &Graph{NodeW: nodeW, Edges: edges}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// FillGraph is FillTree for general graphs.
func FillGraph(nodeW []byte, edges []Edge) (*Graph, uint64, error) {
	g := &Graph{NodeW: make([]float64, len(nodeW)/8), Edges: edges}
	h := NewGraphHasher()
	if err := g.validate(&h, nodeW); err != nil {
		return nil, 0, err
	}
	h.Word(uint64(len(edges)))
	h.Edges(edges)
	return g, h.Sum(), nil
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.NodeW) }

// Validate checks endpoints and weights.
func (g *Graph) Validate() error { return g.validate(nil, nil) }

// validate is Validate, or FillGraph's checks when h is not nil.
func (g *Graph) validate(h *Hasher, nodeW []byte) error {
	n := len(g.NodeW)
	if n == 0 {
		return ErrEmptyGraph
	}
	if err := checkWeights(h, "NodeW", g.NodeW, nodeW); err != nil {
		return err
	}
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("edge %d endpoints (%d,%d) out of range [0,%d): %w",
				i, e.U, e.V, n, ErrBadShape)
		}
		if e.U == e.V {
			return fmt.Errorf("edge %d is a self-loop at %d: %w", i, e.U, ErrBadShape)
		}
		if !validWeight(e.W) {
			return fmt.Errorf("edge %d weight %v: %w", i, e.W, ErrBadWeight)
		}
	}
	return nil
}

// TotalNodeWeight returns the sum of all task weights.
func (g *Graph) TotalNodeWeight() float64 { return SumWeights(g.NodeW) }

// TotalEdgeWeight returns the sum of all communication weights.
func (g *Graph) TotalEdgeWeight() float64 {
	var s float64
	for _, e := range g.Edges {
		s += e.W
	}
	return s
}

// MergeParallel returns a copy of the graph in which parallel edges between
// the same vertex pair are merged into one edge carrying their summed weight.
// Edges in the result are sorted by (min endpoint, max endpoint).
func (g *Graph) MergeParallel() *Graph {
	type key struct{ a, b int }
	agg := make(map[key]float64, len(g.Edges))
	for _, e := range g.Edges {
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		agg[key{a, b}] += e.W
	}
	keys := make([]key, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	edges := make([]Edge, len(keys))
	for i, k := range keys {
		edges[i] = Edge{U: k.a, V: k.b, W: agg[k]}
	}
	return &Graph{
		NodeW: append([]float64(nil), g.NodeW...),
		Edges: edges,
	}
}

// Adjacency returns adjacency lists; adj[v] holds one Arc per incident edge.
func (g *Graph) Adjacency() [][]Arc {
	adj := make([][]Arc, len(g.NodeW))
	for i, e := range g.Edges {
		adj[e.U] = append(adj[e.U], Arc{To: e.V, Edge: i})
		adj[e.V] = append(adj[e.V], Arc{To: e.U, Edge: i})
	}
	return adj
}

// IsConnected reports whether the graph is connected.
func (g *Graph) IsConnected() bool {
	if len(g.NodeW) == 0 {
		return false
	}
	uf := newUnionFind(len(g.NodeW))
	comps := len(g.NodeW)
	for _, e := range g.Edges {
		if uf.union(e.U, e.V) {
			comps--
		}
	}
	return comps == 1
}

// IsPathOrder reports whether the graph is exactly a path visiting vertices
// in index order 0,1,…,n−1, and if so returns the equivalent Path.
func (g *Graph) IsPathOrder() (*Path, bool) {
	n := len(g.NodeW)
	if n == 0 || len(g.Edges) != n-1 {
		return nil, false
	}
	edgeW := make([]float64, n-1)
	seen := make([]bool, n-1)
	for _, e := range g.Edges {
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		if b != a+1 || seen[a] {
			return nil, false
		}
		seen[a] = true
		edgeW[a] = e.W
	}
	return &Path{
		NodeW: append([]float64(nil), g.NodeW...),
		EdgeW: edgeW,
	}, true
}
