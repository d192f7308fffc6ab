package graph

import (
	"fmt"
	"math"
)

// Path is a linear task graph: vertices v_0..v_{n-1} in pipeline order, with
// edge e_i joining v_i and v_{i+1}. This models the chain-like workloads of
// §1 (pipelines, PDE strips, iterative computations).
type Path struct {
	// NodeW[i] is the processing requirement of task i.
	NodeW []float64
	// EdgeW[i] is the communication volume between tasks i and i+1.
	// len(EdgeW) == len(NodeW)-1.
	EdgeW []float64
	// frozen is set by Freeze.
	frozen bool
}

// NewPath constructs and validates a linear task graph. The slices are
// copied, so the caller retains ownership of its arguments. Both columns are
// carved out of a single backing allocation; the capacities are clipped so a
// later append to either column cannot bleed into the other.
func NewPath(nodeW, edgeW []float64) (*Path, error) {
	n := len(nodeW)
	slab := make([]float64, n+len(edgeW))
	copy(slab, nodeW)
	copy(slab[n:], edgeW)
	return NewPathOwned(slab[:n:n], slab[n:])
}

// NewPathOwned constructs and validates a linear task graph that takes
// ownership of the argument slices without copying. The caller must not
// reuse the slices afterwards.
func NewPathOwned(nodeW, edgeW []float64) (*Path, error) {
	p := &Path{NodeW: nodeW, EdgeW: edgeW}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// FillPath is the decoders' NewPath. It takes the weights as little-endian
// float64 bytes and copies, validates and fingerprints them in one pass
// (Hasher.FillWeights). It fails as NewPath would.
func FillPath(nodeW, edgeW []byte) (*Path, uint64, error) {
	n := len(nodeW) / 8
	slab := make([]float64, n+len(edgeW)/8)
	p := &Path{NodeW: slab[:n:n], EdgeW: slab[n:]}
	h := NewPathHasher()
	if err := p.validate(&h, nodeW, edgeW); err != nil {
		return nil, 0, err
	}
	return p, h.Sum(), nil
}

// Len returns the number of tasks (vertices).
func (p *Path) Len() int { return len(p.NodeW) }

// NumEdges returns the number of data dependencies (edges).
func (p *Path) NumEdges() int {
	if len(p.NodeW) == 0 {
		return 0
	}
	return len(p.NodeW) - 1
}

// Validate checks shape and weight invariants. A frozen path returns nil
// at once, as a frozen tree does.
func (p *Path) Validate() error {
	if p.frozen {
		return nil
	}
	return p.validate(nil, nil, nil)
}

// Freeze marks the valid path p as shared and read-only, as Tree.Freeze
// does: Validate trusts it from here on, and nothing may write to it.
func (p *Path) Freeze() { p.frozen = true }

// Frozen reports whether Freeze was called on p.
func (p *Path) Frozen() bool { return p.frozen }

// Footprint is the bytes p's weight arrays hold.
func (p *Path) Footprint() int { return 8 * (len(p.NodeW) + len(p.EdgeW)) }

// validate is Validate, or FillPath's checks when h is not nil.
func (p *Path) validate(h *Hasher, nodeW, edgeW []byte) error {
	if len(p.NodeW) == 0 {
		return ErrEmptyGraph
	}
	if len(p.EdgeW) != len(p.NodeW)-1 {
		return fmt.Errorf("path with %d nodes has %d edges, want %d: %w",
			len(p.NodeW), len(p.EdgeW), len(p.NodeW)-1, ErrBadShape)
	}
	if err := checkWeights(h, "NodeW", p.NodeW, nodeW); err != nil {
		return err
	}
	return checkWeights(h, "EdgeW", p.EdgeW, edgeW)
}

// Clone returns a deep copy of the path, backed by one fresh allocation.
func (p *Path) Clone() *Path {
	n := len(p.NodeW)
	slab := make([]float64, n+len(p.EdgeW))
	copy(slab, p.NodeW)
	copy(slab[n:], p.EdgeW)
	return &Path{NodeW: slab[:n:n], EdgeW: slab[n:]}
}

// TotalNodeWeight returns the sum of all task weights.
func (p *Path) TotalNodeWeight() float64 { return SumWeights(p.NodeW) }

// MaxNodeWeight returns the largest task weight.
func (p *Path) MaxNodeWeight() float64 { return MaxWeight(p.NodeW) }

// PrefixNodeWeights returns the exclusive prefix sums of NodeW: the result
// has length Len()+1 and result[j]-result[i] is the weight of tasks i..j-1.
func (p *Path) PrefixNodeWeights() []float64 {
	return p.PrefixNodeWeightsInto(nil)
}

// PrefixNodeWeightsInto is PrefixNodeWeights writing into buf when it has
// sufficient capacity, allocating only otherwise — the scratch-pooled form
// used by the solvers' hot paths.
func (p *Path) PrefixNodeWeightsInto(buf []float64) []float64 {
	n := len(p.NodeW) + 1
	var prefix []float64
	if cap(buf) >= n {
		prefix = buf[:n]
		prefix[0] = 0
	} else {
		prefix = make([]float64, n)
	}
	for i, w := range p.NodeW {
		prefix[i+1] = prefix[i] + w
	}
	return prefix
}

// Components returns the vertex ranges induced by removing the cut edges.
// Each element is the half-open pair {first vertex, last vertex} (inclusive).
// The cut must be sorted, duplicate-free, and in range.
func (p *Path) Components(cut []int) ([][2]int, error) {
	if err := checkCut(cut, p.NumEdges()); err != nil {
		return nil, err
	}
	comps := make([][2]int, 0, len(cut)+1)
	start := 0
	for _, e := range cut {
		comps = append(comps, [2]int{start, e})
		start = e + 1
	}
	comps = append(comps, [2]int{start, p.Len() - 1})
	return comps, nil
}

// ComponentWeights returns the total task weight of each component of
// P − cut, in left-to-right order.
func (p *Path) ComponentWeights(cut []int) ([]float64, error) {
	if err := checkCut(cut, p.NumEdges()); err != nil {
		return nil, err
	}
	return p.componentWeights(cut), nil
}

// componentWeights is ComponentWeights for a checked cut. One running
// prefix sum instead of a materialized prefix array: the components tile
// [0, n) left to right, so `run` after a component's last node equals
// prefix[last+1] bit for bit (same accumulation order), keeping every
// weight identical to the array-based computation.
func (p *Path) componentWeights(cut []int) []float64 {
	ws := make([]float64, len(cut)+1)
	var run float64
	v := 0
	for i := range ws {
		end := len(p.NodeW) // one past the component's last node
		if i < len(cut) {
			end = cut[i] + 1
		}
		start := run
		for ; v < end; v++ {
			run += p.NodeW[v]
		}
		ws[i] = run - start
	}
	return ws
}

// CutSummary returns what CutWeight, MaxCutEdgeWeight and ComponentWeights
// return for cut, bit for bit, after checking cut once.
func (p *Path) CutSummary(cut []int) (cutWeight, bottleneck float64, ws []float64, err error) {
	if err := checkCut(cut, p.NumEdges()); err != nil {
		return 0, 0, nil, err
	}
	for _, e := range cut {
		w := p.EdgeW[e]
		cutWeight += w
		if w > bottleneck {
			bottleneck = w
		}
	}
	return cutWeight, bottleneck, p.componentWeights(cut), nil
}

// ComponentMaxNodeWeights returns, per component of P − cut left to right,
// the heaviest single node weight. It is the per-processor cost vector of
// the sum-of-max criterion.
func (p *Path) ComponentMaxNodeWeights(cut []int) ([]float64, error) {
	comps, err := p.Components(cut)
	if err != nil {
		return nil, err
	}
	ms := make([]float64, len(comps))
	for i, c := range comps {
		m := math.Inf(-1)
		for v := c[0]; v <= c[1]; v++ {
			if p.NodeW[v] > m {
				m = p.NodeW[v]
			}
		}
		ms[i] = m
	}
	return ms, nil
}

// MaxComponentWeight returns the heaviest component weight of P − cut.
func (p *Path) MaxComponentWeight(cut []int) (float64, error) {
	ws, err := p.ComponentWeights(cut)
	if err != nil {
		return 0, err
	}
	return MaxWeight(ws), nil
}

// CutWeight returns β(cut), the total communication weight of the cut edges.
func (p *Path) CutWeight(cut []int) (float64, error) {
	if err := checkCut(cut, p.NumEdges()); err != nil {
		return 0, err
	}
	var s float64
	for _, e := range cut {
		s += p.EdgeW[e]
	}
	return s, nil
}

// MaxCutEdgeWeight returns the bottleneck, max over cut edges of β, or 0 for
// an empty cut.
func (p *Path) MaxCutEdgeWeight(cut []int) (float64, error) {
	if err := checkCut(cut, p.NumEdges()); err != nil {
		return 0, err
	}
	var m float64
	for _, e := range cut {
		if p.EdgeW[e] > m {
			m = p.EdgeW[e]
		}
	}
	return m, nil
}

// AsTree converts the path into the equivalent tree task graph, with edge i
// of the path becoming Edges[i] of the tree.
func (p *Path) AsTree() *Tree {
	edges := make([]Edge, p.NumEdges())
	for i := range edges {
		edges[i] = Edge{U: i, V: i + 1, W: p.EdgeW[i]}
	}
	return &Tree{
		NodeW: append([]float64(nil), p.NodeW...),
		Edges: edges,
	}
}
