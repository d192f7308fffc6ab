// Package linearize approximates a general task graph by a linear
// super-graph, the §3 escape hatch for applying the paper's path algorithms
// to systems that are not exactly chains: "we may first approximate the
// original system by generating a super-graph, which is linear, from the
// process graph, then apply the algorithm to the super-graph."
//
// BFSBands groups vertices by breadth-first level. In an undirected graph
// every edge joins vertices whose levels differ by at most one, so the
// banded graph is *exactly* a path: intra-band edges become internal
// computation and adjacent-band edge weights sum into the path's edge
// weights. No communication weight is ever lost or misplaced.
//
// A cut of the super-graph path expands to a cut of the original graph
// (ProjectCut) whose crossing weight equals the path cut weight, so any
// feasibility or bandwidth guarantee obtained on the super-graph transfers
// to the original system — at the price of restricting candidate cuts to
// band boundaries (the approximation the paper accepts).
package linearize

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Sentinel errors.
var (
	// ErrDisconnected is returned when the input graph is not connected.
	ErrDisconnected = errors.New("linearize: graph is not connected")
	// ErrBadSeed is returned for an out-of-range BFS seed vertex.
	ErrBadSeed = errors.New("linearize: bad seed vertex")
)

// Banding is a linear super-graph together with its provenance.
type Banding struct {
	// Path is the super-graph: vertex i is band i.
	Path *graph.Path
	// Bands lists the original vertices of each band, in increasing order.
	Bands [][]int
	// Band[v] is the band of original vertex v.
	Band []int
	// InternalWeight is the total edge weight kept inside bands (serviced by
	// shared memory within one processor, costing nothing on the bus).
	InternalWeight float64
}

// BFSBands builds the banding by breadth-first levels from seed.
func BFSBands(g *graph.Graph, seed int) (*Banding, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.Len()
	if seed < 0 || seed >= n {
		return nil, fmt.Errorf("seed %d out of [0,%d): %w", seed, n, ErrBadSeed)
	}
	adj := g.Adjacency()
	band := make([]int, n)
	for v := range band {
		band[v] = -1
	}
	queue := []int{seed}
	band[seed] = 0
	levels := 1
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, a := range adj[v] {
			if band[a.To] == -1 {
				band[a.To] = band[v] + 1
				if band[a.To]+1 > levels {
					levels = band[a.To] + 1
				}
				queue = append(queue, a.To)
			}
		}
	}
	for v, b := range band {
		if b == -1 {
			return nil, fmt.Errorf("vertex %d unreachable from seed %d: %w", v, seed, ErrDisconnected)
		}
	}
	return buildBanding(g, band, levels)
}

func buildBanding(g *graph.Graph, band []int, levels int) (*Banding, error) {
	nodeW := make([]float64, levels)
	bands := make([][]int, levels)
	for v, b := range band {
		nodeW[b] += g.NodeW[v]
		bands[b] = append(bands[b], v)
	}
	edgeW := make([]float64, levels-1)
	var internal float64
	for _, e := range g.Edges {
		bu, bv := band[e.U], band[e.V]
		if bu == bv {
			internal += e.W
			continue
		}
		if bu > bv {
			bu, bv = bv, bu
		}
		// BFS levels of an edge's ends differ by one, so bv == bu+1.
		edgeW[bu] += e.W
	}
	p, err := graph.NewPath(nodeW, edgeW)
	if err != nil {
		return nil, err
	}
	return &Banding{Path: p, Bands: bands, Band: band, InternalWeight: internal}, nil
}

// Quality reports how faithfully the banding represents the original graph.
type Quality struct {
	// AdjacentWeight is edge weight between adjacent bands (represented
	// exactly).
	AdjacentWeight float64
	// InternalWeight is edge weight inside bands (costless, also exact).
	InternalWeight float64
}

// Quality computes the banding quality against the original graph.
func (b *Banding) Quality(g *graph.Graph) Quality {
	var q Quality
	for _, e := range g.Edges {
		// BFS levels of an edge's ends differ by at most one.
		if b.Band[e.U] == b.Band[e.V] {
			q.InternalWeight += e.W
		} else {
			q.AdjacentWeight += e.W
		}
	}
	return q
}

// ProjectCut expands a cut of the super-graph path (band boundary indices)
// to the corresponding edge cut of the original graph: all original edges
// whose endpoints end up in different components of the banded path.
func (b *Banding) ProjectCut(g *graph.Graph, pathCut []int) ([]int, error) {
	comps, err := b.Path.Components(pathCut)
	if err != nil {
		return nil, err
	}
	compOf := make([]int, b.Path.Len())
	for ci, rng := range comps {
		for band := rng[0]; band <= rng[1]; band++ {
			compOf[band] = ci
		}
	}
	var cut []int
	for i, e := range g.Edges {
		if compOf[b.Band[e.U]] != compOf[b.Band[e.V]] {
			cut = append(cut, i)
		}
	}
	return cut, nil
}

// RingToPath is a convenience for §3's "circular or linear" systems: if the
// graph is a simple cycle, cut its lightest edge and return the resulting
// path along with the original vertex order. ok is false when the graph is
// not a simple cycle.
func RingToPath(g *graph.Graph) (*graph.Path, []int, bool) {
	n := g.Len()
	if n < 3 || len(g.Edges) != n {
		return nil, nil, false
	}
	adj := g.Adjacency()
	for _, a := range adj {
		if len(a) != 2 {
			return nil, nil, false
		}
	}
	// Find the lightest edge; walk the cycle starting just after it.
	minE := 0
	for i, e := range g.Edges {
		if e.W < g.Edges[minE].W {
			minE = i
		}
	}
	start := g.Edges[minE].V
	prev := g.Edges[minE].U
	orderV := make([]int, 0, n)
	edgeW := make([]float64, 0, n-1)
	v := start
	for len(orderV) < n {
		orderV = append(orderV, v)
		var next int
		var w float64
		found := false
		for _, a := range adj[v] {
			if a.To != prev && a.Edge != minE {
				next, w, found = a.To, g.Edges[a.Edge].W, true
				break
			}
		}
		if !found {
			break
		}
		if len(orderV) < n {
			edgeW = append(edgeW, w)
		}
		prev, v = v, next
	}
	if len(orderV) != n {
		return nil, nil, false
	}
	nodeW := make([]float64, n)
	for i, ov := range orderV {
		nodeW[i] = g.NodeW[ov]
	}
	p, err := graph.NewPath(nodeW, edgeW)
	if err != nil {
		return nil, nil, false
	}
	return p, orderV, true
}
