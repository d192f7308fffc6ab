package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Extensions beyond the paper's fixed-K formulation that a deployment
// actually needs: bounding the processor count as well as the load, and
// exploring the K ↔ bandwidth ↔ processors trade-off before choosing K.

// BandwidthLimited solves bandwidth minimization with an additional cap on
// the number of components (processors): a minimum-weight cut such that
// every component weighs ≤ K and at most m components result. The paper's
// Bandwidth is the m = ∞ case; this variant covers machines with fewer
// processors than the unconstrained optimum would use. Level-wise prefix DP
// with a monotone deque per level: O(n·m) time.
func BandwidthLimited(ctx context.Context, p *graph.Path, k float64, m int) (*PathPartition, int64, error) {
	ctx, err := enter(ctx)
	if err != nil {
		return nil, 0, err
	}
	tk := newTicker(ctx)
	if err := checkBound(k); err != nil {
		return nil, 0, err
	}
	if m <= 0 {
		return nil, 0, fmt.Errorf("m = %d: %w", m, ErrBadBound)
	}
	if p.MaxNodeWeight() > k {
		return nil, 0, fmt.Errorf("max vertex weight %v > K=%v: %w", p.MaxNodeWeight(), k, ErrInfeasible)
	}
	if p.TotalNodeWeight() <= k {
		pp, err := newPathPartition(p, nil, k)
		return pp, 0, err
	}
	n := p.Len()
	if m == 1 {
		// One component must hold everything, but the total exceeds K.
		return nil, 0, fmt.Errorf("total weight %v > K=%v with m=1: %w", p.TotalNodeWeight(), k, ErrInfeasible)
	}
	if m > n {
		m = n
	}
	sc := getScratch()
	defer sc.release()
	sc.dp.prefix = p.PrefixNodeWeightsInto(sc.dp.prefix)
	prefix := sc.dp.prefix
	// f[j][i]: min cut weight for the prefix ending with a cut at edge i,
	// using exactly j cuts so far (j ≥ 1); parent for reconstruction.
	// Level j consumes level j−1 via a sliding-window minimum.
	const inf = math.MaxFloat64
	sc.f64a = grow(sc.f64a, n-1)
	sc.f64b = grow(sc.f64b, n-1)
	fPrev, fCur := sc.f64a, sc.f64b
	parent := make([][]int32, m) // parent[j][i], j ≥ 2
	// One span for the whole level-wise DP; per-level spans would cost O(m)
	// allocations without adding phase information.
	dp := obs.Phase(ctx, "level-dp")
	// Level 1: single cut at edge i; first block v_0..v_i must fit.
	for i := 0; i < n-1; i++ {
		if err := tk.tick(); err != nil {
			dp.End()
			return nil, tk.n, err
		}
		if prefix[i+1] <= k {
			fPrev[i] = p.EdgeW[i]
		} else {
			fPrev[i] = inf
		}
	}
	best := inf
	bestLevel, bestI := 0, -1
	scanFinal := func(level int, f []float64) {
		total := prefix[n]
		for i := n - 2; i >= 0; i-- {
			if total-prefix[i+1] > k {
				break
			}
			if f[i] < best {
				best, bestLevel, bestI = f[i], level, i
			}
		}
	}
	scanFinal(1, fPrev)
	// Monotone deque over predecessors from the previous level, reused (and
	// re-sliced empty) across levels.
	sc.deque32 = grow(sc.deque32, n)
	for j := 2; j <= m-1; j++ {
		parent[j] = make([]int32, n-1)
		deque := sc.deque32[:0]
		ptr := 0 // next predecessor index to admit
		for i := 0; i < n-1; i++ {
			if err := tk.tick(); err != nil {
				dp.End()
				return nil, tk.n, err
			}
			// Admit predecessors ending before i.
			for ; ptr < i; ptr++ {
				if fPrev[ptr] == inf {
					continue
				}
				for len(deque) > 0 && fPrev[deque[len(deque)-1]] >= fPrev[ptr] {
					deque = deque[:len(deque)-1]
				}
				deque = append(deque, int32(ptr))
			}
			// Evict predecessors whose segment to i overflows K.
			for len(deque) > 0 && prefix[i+1]-prefix[deque[0]+1] > k {
				deque = deque[1:]
			}
			if len(deque) == 0 {
				fCur[i] = inf
				parent[j][i] = -1
			} else {
				fCur[i] = p.EdgeW[i] + fPrev[deque[0]]
				parent[j][i] = deque[0]
			}
		}
		scanFinal(j, fCur)
		fPrev, fCur = fCur, fPrev
	}
	obs.SetAttr(dp, "levels", m-1)
	dp.End()
	if bestI < 0 {
		return nil, tk.n, fmt.Errorf("no feasible cut with at most %d components: %w", m, ErrInfeasible)
	}
	// Reconstruct: bestLevel cuts ending at bestI. Levels above 1 recorded
	// parents; level-1 entries are roots. Because fPrev/fCur swap, walk
	// using the recorded parent arrays directly.
	cut := make([]int, 0, bestLevel)
	i := bestI
	for j := bestLevel; j >= 2; j-- {
		cut = append(cut, i)
		i = int(parent[j][i])
	}
	cut = append(cut, i)
	// Reverse into ascending order.
	for l, r := 0, len(cut)-1; l < r; l, r = l+1, r-1 {
		cut[l], cut[r] = cut[r], cut[l]
	}
	pp, err := newPathPartition(p, cut, k)
	return pp, tk.n, err
}

// TradeoffPoint is one row of the K ↔ cost trade-off curve.
type TradeoffPoint struct {
	K          float64
	CutWeight  float64
	Bottleneck float64
	Components int
}

// TradeoffCurve evaluates Bandwidth across the given bounds, returning one
// point per feasible K (infeasible bounds are skipped). Cut weight is
// non-increasing in K; the curve is how a deployment picks its
// per-processor budget. It is reached without the solver engine, so it
// validates p once for the whole curve.
func TradeoffCurve(p *graph.Path, ks []float64) ([]TradeoffPoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	points := make([]TradeoffPoint, 0, len(ks))
	for _, k := range ks {
		pp, _, err := Bandwidth(context.Background(), p, k)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			return nil, err
		}
		points = append(points, TradeoffPoint{
			K:          k,
			CutWeight:  pp.CutWeight,
			Bottleneck: pp.Bottleneck,
			Components: pp.NumComponents(),
		})
	}
	return points, nil
}
