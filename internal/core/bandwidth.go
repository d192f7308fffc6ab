package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/hitting"
	"repro/internal/obs"
	"repro/internal/prime"
)

// This file implements bandwidth minimization on linear task graphs (§2.3):
// find a minimum-total-weight edge cut such that every component of P − S
// weighs at most K.
//
// Bandwidth is the paper's O(n + p log q) algorithm: prime critical subpaths
// → TEMP_S sweep, which picks each run's non-redundant edge as it walks, so
// no compressed instance is built. The other entry points
// are the comparison baselines of the evaluation:
//
//   - BandwidthHeap:  the prior state of the art's O(n log n) shape (Nicol &
//     O'Hallaron 1991), realized as the window-constrained prefix DP with a
//     lazily-deleted min-heap.
//   - BandwidthDeque: the same DP with a monotone deque, O(n). Stronger than
//     anything in the paper; included as an ablation.
//   - BandwidthNaive: the same DP scanning the whole window per edge,
//     O(n · window) — the paper's "naive way" cost profile.
//
// Exhaustive reference solvers live in internal/verify/oracle; tests compare
// against those rather than a package-local brute force.

// Bandwidth solves bandwidth minimization with the paper's algorithm. The
// TEMP_S sweep polls ctx and its run count, r, is the iteration count; the
// prime-extract, temps-dp and build-partition phases each open a span.
func Bandwidth(ctx context.Context, p *graph.Path, k float64) (*PathPartition, int64, error) {
	return bandwidthTempS(ctx, p, k, nil)
}

// BandwidthInstrumented is Bandwidth with the TEMP_S queue instrumentation
// used by the Figure 2(d) / Appendix B study. It is reached without the
// solver engine, so it validates p itself.
func BandwidthInstrumented(p *graph.Path, k float64) (*PathPartition, *hitting.Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	tr := &hitting.Trace{}
	pp, _, err := bandwidthTempS(context.Background(), p, k, tr)
	if err != nil {
		return nil, nil, err
	}
	return pp, tr, nil
}

// bandwidthTempS is Bandwidth recording the TEMP_S queue behaviour into tr
// when tr is non-nil.
func bandwidthTempS(ctx context.Context, p *graph.Path, k float64, tr *hitting.Trace) (*PathPartition, int64, error) {
	ctx, err := enter(ctx)
	if err != nil {
		return nil, 0, err
	}
	if err := checkBound(k); err != nil {
		return nil, 0, err
	}
	// Phase 1 (§2.3.1): the prime critical subpaths, one O(n) window sweep.
	// Their endpoint columns live in pooled scratch; they are dead once the
	// sweep below has run.
	sc := getScratch()
	defer sc.release()
	sp := obs.Phase(ctx, "prime-extract")
	a, b, err := prime.FindInto(sc.primeA, sc.primeB, p.NodeW, k)
	if err != nil {
		sp.End()
		if errors.Is(err, prime.ErrVertexTooHeavy) {
			return nil, 0, fmt.Errorf("%v: %w", err, ErrInfeasible)
		}
		return nil, 0, err
	}
	sc.primeA, sc.primeB = a, b
	obs.SetAttr(sp, "primeSubpaths", len(a))
	sp.End()
	// Phase 2 (§2.3.1 Algorithm 4.1): the TEMP_S sweep over the runs of
	// edges the subpaths cover — the O(n) non-redundant edge scan and the
	// O(p log q) monotone-queue DP in one walk. Each run's lightest edge is
	// a non-redundant edge, so the sweep's iteration count is r and its
	// points are original edge indices: the cut. Find's subpaths are valid
	// intervals over the edges, so the sweep does not re-check them.
	dctx, sp := obs.StartSpan(ctx, "temps-dp")
	cut, _, iters, err := hitting.SolveTempSIntervals(dctx, p.EdgeW, a, b, tr)
	obs.SetAttr(sp, "iterations", iters)
	if err == nil {
		obs.SetAttr(sp, "nonRedundantEdges", iters)
	}
	sp.End()
	if err != nil {
		return nil, iters, err
	}
	sp = obs.Phase(ctx, "build-partition")
	pp, err := newPathPartition(p, cut, k)
	sp.End()
	return pp, iters, err
}

// dpState holds the shared pieces of the window-constrained prefix DP. For
// edges e_0..e_{n-2}, f[i] is the minimum cut weight of any feasible cut of
// the prefix v_0..v_i whose rightmost cut edge is e_i; parent[i] is the
// preceding cut edge (or -1). A cut at e_i and previous cut at e_j is allowed
// when the enclosed segment v_{j+1}..v_i weighs at most K.
type dpState struct {
	f      []float64
	parent []int
	prefix []float64
}

func (s *dpState) reconstruct(i int) []int {
	var cut []int
	for ; i >= 0; i = s.parent[i] {
		cut = append(cut, i)
	}
	// Reverse into increasing order.
	for l, r := 0, len(cut)-1; l < r; l, r = l+1, r-1 {
		cut[l], cut[r] = cut[r], cut[l]
	}
	return cut
}

func (s *dpState) finish(p *graph.Path, k float64) (*PathPartition, error) {
	n := p.Len()
	best := math.Inf(1)
	bestI := -1
	total := s.prefix[n]
	for i := n - 2; i >= 0; i-- {
		// Suffix v_{i+1}..v_{n-1} must fit in one component.
		if total-s.prefix[i+1] > k {
			break
		}
		if s.f[i] < best {
			best, bestI = s.f[i], i
		}
	}
	if bestI < 0 || math.IsInf(best, 1) {
		// Unreachable for validated inputs (single-vertex components always
		// fit), but guard against returning a wrong partition.
		return nil, ErrInfeasible
	}
	return newPathPartition(p, s.reconstruct(bestI), k)
}

// prefixDP is the harness the three prefix-DP baselines share. It
// normalizes ctx, answers at once when the uncut path fits (prepDP), and
// otherwise runs sweep once inside a "dp-sweep" span tagged with the edge
// count, then reads the optimum off in a "finish-scan" span. sweep fills
// s.f and s.parent for every edge, polling tk; it may annotate sp.
func prefixDP(ctx context.Context, p *graph.Path, k float64, sweep func(sc *scratch, s *dpState, tk *ticker, sp *obs.Span) error) (*PathPartition, int64, error) {
	ctx, err := enter(ctx)
	if err != nil {
		return nil, 0, err
	}
	tk := newTicker(ctx)
	sc := getScratch()
	defer sc.release()
	done, s, err := sc.prepDP(p, k)
	if done != nil || err != nil {
		return done, 0, err
	}
	sp := obs.Phase(ctx, "dp-sweep")
	obs.SetAttr(sp, "edges", p.Len()-1)
	err = sweep(sc, s, tk, sp)
	sp.End()
	if err != nil {
		return nil, tk.n, err
	}
	fin := obs.Phase(ctx, "finish-scan")
	pp, err := s.finish(p, k)
	fin.End()
	return pp, tk.n, err
}

// BandwidthDeque solves bandwidth minimization with the prefix DP and a
// monotone deque for the sliding-window minimum: O(n) time.
func BandwidthDeque(ctx context.Context, p *graph.Path, k float64) (*PathPartition, int64, error) {
	return prefixDP(ctx, p, k, func(sc *scratch, s *dpState, tk *ticker, _ *obs.Span) error {
		n := p.Len()
		// Deque of candidate predecessor cut indices with increasing f; -1 is
		// the virtual "no previous cut" candidate with f = 0.
		fval := func(j int) float64 {
			if j < 0 {
				return 0
			}
			return s.f[j]
		}
		// Candidates appear in increasing j and increasing f, so both the
		// window eviction (front) and the dominance eviction (back) are valid.
		sc.deque = grow(sc.deque, n)
		deque := sc.deque[:0]
		deque = append(deque, -1)
		for i := 0; i < n-1; i++ {
			if err := tk.tick(); err != nil {
				return err
			}
			// Evict candidates j whose segment v_{j+1}..v_i exceeds K.
			for len(deque) > 0 && s.prefix[i+1]-s.prefix[deque[0]+1] > k {
				deque = deque[1:]
			}
			if len(deque) == 0 {
				s.f[i] = math.Inf(1)
				s.parent[i] = -2
			} else {
				s.f[i] = p.EdgeW[i] + fval(deque[0])
				s.parent[i] = deque[0]
			}
			// Insert candidate i for subsequent edges.
			if !math.IsInf(s.f[i], 1) {
				for len(deque) > 0 && fval(deque[len(deque)-1]) >= s.f[i] {
					deque = deque[:len(deque)-1]
				}
				deque = append(deque, i)
			}
		}
		return nil
	})
}

// heapItem pairs a candidate predecessor with its f value.
type heapItem struct {
	j int
	f float64
}

type minHeap []heapItem

func (h minHeap) Len() int             { return len(h) }
func (h minHeap) Less(i, j int) bool   { return h[i].f < h[j].f }
func (h minHeap) Swap(i, j int)        { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)          { *h = append(*h, x.(heapItem)) }
func (h *minHeap) Pop() any            { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h minHeap) peek() heapItem       { return h[0] }
func (h *minHeap) popItem() heapItem   { return heap.Pop(h).(heapItem) }
func (h *minHeap) pushItem(x heapItem) { heap.Push(h, x) }

// BandwidthHeap solves bandwidth minimization with the prefix DP and a
// min-heap with lazy deletion: O(n log n), the asymptotic shape of the best
// previously known algorithm (Nicol & O'Hallaron 1991) that the paper
// compares against.
func BandwidthHeap(ctx context.Context, p *graph.Path, k float64) (*PathPartition, int64, error) {
	return prefixDP(ctx, p, k, func(sc *scratch, s *dpState, tk *ticker, _ *obs.Span) error {
		n := p.Len()
		// The heap holds at most one candidate per edge plus the virtual root.
		if cap(sc.heapBuf) < n+1 {
			sc.heapBuf = make(minHeap, 0, n+1)
		}
		h := &sc.heapBuf
		*h = append((*h)[:0], heapItem{j: -1, f: 0})
		// winLo tracks the smallest predecessor index still inside the
		// window; heap entries below it are stale and lazily discarded.
		winLo := -1
		for i := 0; i < n-1; i++ {
			if err := tk.tick(); err != nil {
				return err
			}
			for winLo <= i && s.prefix[i+1]-s.prefix[winLo+1] > k {
				winLo++
			}
			for h.Len() > 0 && h.peek().j < winLo {
				h.popItem()
			}
			if h.Len() == 0 {
				s.f[i] = math.Inf(1)
				s.parent[i] = -2
			} else {
				top := h.peek()
				s.f[i] = p.EdgeW[i] + top.f
				s.parent[i] = top.j
			}
			if !math.IsInf(s.f[i], 1) {
				h.pushItem(heapItem{j: i, f: s.f[i]})
			}
		}
		return nil
	})
}

// BandwidthNaive solves bandwidth minimization with the prefix DP, scanning
// every in-window predecessor for each edge: O(n · window) time, up to
// O(n²). This matches the cost profile the paper ascribes to the naive
// recurrence evaluation.
//
// The poll sits in the inner window scan, so even a single quadratic-width
// window observes cancellation promptly.
func BandwidthNaive(ctx context.Context, p *graph.Path, k float64) (*PathPartition, int64, error) {
	return prefixDP(ctx, p, k, func(_ *scratch, s *dpState, tk *ticker, sp *obs.Span) error {
		n := p.Len()
		for i := 0; i < n-1; i++ {
			best := math.Inf(1)
			parent := -2
			for j := i - 1; j >= -1; j-- {
				if err := tk.tick(); err != nil {
					return err
				}
				if s.prefix[i+1]-s.prefix[j+1] > k {
					break
				}
				fj := 0.0
				if j >= 0 {
					fj = s.f[j]
				}
				if fj < best {
					best, parent = fj, j
				}
			}
			if math.IsInf(best, 1) {
				s.f[i] = best
				s.parent[i] = -2
				continue
			}
			s.f[i] = p.EdgeW[i] + best
			s.parent[i] = parent
		}
		obs.SetAttr(sp, "iterations", tk.n)
		return nil
	})
}
