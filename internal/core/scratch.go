package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/hitting"
	"repro/internal/obs"
	"repro/internal/prime"
)

// Per-solve scratch memory. Every solver in this package works over a set of
// flat arrays sized by the input (DP tables, prefix sums, postorder stacks,
// union-find state, feasibility markers). Under a serving layer the same
// solver runs thousands of times on similarly-sized inputs, so the arrays are
// pooled: a solve checks a scratch out of a package sync.Pool, reslices its
// fields to the input size (growing only on high-water marks), and returns it
// when done. Nothing stored in a scratch escapes a solve — partitions are
// assembled from fresh allocations — so recycling is safe.

type scratch struct {
	// prime is the bandwidth solver's Analyze scratch (prime subpaths +
	// compressed instance).
	prime prime.Scratch
	// dp is the window-constrained prefix DP state shared by the
	// Bandwidth{Deque,Heap,Naive} family.
	dp dpState
	// hin is the hitting-set instance handed to the TEMP_S sweep; it lives
	// here so building it does not allocate per solve.
	hin hitting.Instance
	// deque backs the monotone deque of BandwidthDeque and the heap-ordered
	// candidate list of BandwidthHeap (as heapBuf).
	deque   []int
	heapBuf minHeap
	// order is the bottleneck's weight-bucketed edge permutation.
	order []int
	// bucketStart holds the bottleneck's weight-bucket bounds into order,
	// bucketKeys the packed sort keys of its large buckets.
	bucketStart []int32
	bucketKeys  []uint64
	// parentV is the bottleneck's union-find parent, and res the residual
	// loads of the procmin sweep and the max–min probes.
	parentV []int
	res     []float64
	// weight is the bottleneck's union-find component weight.
	weight []float64
	// inCut marks the bottleneck's cut edges.
	inCut []bool
	// rootBuf backs the rooted view (graph.Rooted) of tree solvers.
	rootBuf []int32
	// children collects a vertex's absorbed children for the procmin
	// sort-and-prune step, reused across vertices.
	children []childSlot
	// f64a / f64b are the level-DP rows of BandwidthLimited; deque32 is its
	// per-level monotone deque. MaxMinTree keeps its subtree weights, probe
	// base weights and active vertex list in the same three.
	f64a, f64b []float64
	deque32    []int32
	// sm is the sum-of-max DP's table slab and merge buffers.
	sm smDP
}

// childSlot is one absorbed child in the procmin prune step.
type childSlot struct {
	res  float64
	edge int
}

var solvePool = sync.Pool{New: func() any {
	scratchNews.Add(1)
	return new(scratch)
}}

// scratchGets / scratchNews count scratch checkouts and the subset that had
// to allocate a fresh scratch (pool miss) — exported via ScratchPoolStats for
// the serving layer's pool-effectiveness metrics.
var scratchGets, scratchNews atomic.Uint64

func getScratch() *scratch {
	scratchGets.Add(1)
	return solvePool.Get().(*scratch)
}
func (s *scratch) release() { solvePool.Put(s) }

// ScratchPoolStats reports solver-scratch pool traffic: gets since process
// start, and how many of those allocated a fresh scratch.
func ScratchPoolStats() (gets, news uint64) {
	return scratchGets.Load(), scratchNews.Load()
}

// grow returns a slice of length n reusing s's capacity; entries are NOT
// cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// prepDP checks the bound and handles the trivial cases, returning a
// non-nil partition when the answer is already decided (empty cut feasible);
// otherwise it wires the DP state to sc's pooled arrays.
func (sc *scratch) prepDP(p *graph.Path, k float64) (*PathPartition, *dpState, error) {
	if err := checkBound(k); err != nil {
		return nil, nil, err
	}
	if p.MaxNodeWeight() > k {
		return nil, nil, fmt.Errorf("max vertex weight %v > K=%v: %w", p.MaxNodeWeight(), k, ErrInfeasible)
	}
	if p.TotalNodeWeight() <= k {
		pp, err := newPathPartition(p, nil, k)
		return pp, nil, err
	}
	n := p.Len()
	sc.dp.f = grow(sc.dp.f, n-1)
	sc.dp.parent = grow(sc.dp.parent, n-1)
	sc.dp.prefix = p.PrefixNodeWeightsInto(sc.dp.prefix)
	return nil, &sc.dp, nil
}

// rootTree roots the valid tree t at vertex 0 in sc's pooled buffer, inside
// a "postorder-build" span. A frozen tree's shared view leaves the buffer
// alone (graph.Tree.Root0); the solvers only read the view.
func (sc *scratch) rootTree(ctx context.Context, t *graph.Tree) graph.Rooted {
	sp := obs.Phase(ctx, "postorder-build")
	rt, buf := t.Root0(sc.rootBuf)
	sc.rootBuf = buf
	obs.SetAttr(sp, "nodes", t.Len())
	sp.End()
	return rt
}
