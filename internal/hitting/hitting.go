// Package hitting solves the structured weighted hitting-set problem at the
// heart of the paper's bandwidth-minimization algorithm (§2.3): given points
// (non-redundant path edges) with weights and a family of intervals over them
// (the prime critical subpaths), find a minimum-weight set of points hitting
// every interval.
//
// General weighted hitting set is NP-hard even with |A_i| ≤ 2 (Definition
// 2.1), but here the sets are edge sets of subpaths of a path: each interval
// is a contiguous point range and both endpoints are strictly increasing
// across intervals. That structure admits the paper's recurrence
//
//	S_i = min over points e in interval i of  β_e + β(S_{γ(e)})
//
// where γ(e) is the last interval (in left-end order) not containing e.
// SolveTempS implements the paper's Algorithm 4.1: an O(n + p log q) sweep
// that maintains the TEMP_S queue of (interval range, current min W-value,
// cut) rows. SolveNaiveDP is the paper's "naive" O(Σ|P_i|) evaluation, and
// SolveBrute is an exponential reference for tests.
//
// There is one sweep, SolveTempSIntervals, and it walks runs of points
// covered by the same intervals, taking each run's lightest point: on a
// path's raw edges those are §2.3's non-redundant edges, so the sweep does
// the O(n) compression as it goes, and on a compressed instance each point
// is a run of its own. internal/core hands it a path's edge weights and
// prime subpaths (prime.FindInto) directly; SolveTempSCtx runs it over an
// Instance.
//
// Every solver validates the instance it is handed except
// SolveTempSIntervals and SolveTempSCtx: their callers already hold valid
// intervals (prime.FindInto's subpaths of a validated path, or an Instance
// prime.Analyze built), and nothing in the sweep re-checks them.
package hitting

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Sentinel errors.
var (
	// ErrBadInstance is returned by Validate for malformed instances, and by
	// the sweeps for instances of more than math.MaxInt32 points.
	ErrBadInstance = errors.New("hitting: bad instance")
	// ErrTooLarge is returned by SolveBrute for instances beyond brute reach.
	ErrTooLarge = errors.New("hitting: instance too large for brute force")
)

// Instance is the ordered-interval hitting instance. Points are indexed
// 0..len(Beta)-1 in path order; interval j covers the contiguous point range
// [A[j], B[j]].
type Instance struct {
	// Beta[i] is the weight of point i.
	Beta []float64
	// A and B are the inclusive interval endpoints; both must be strictly
	// increasing (prime subpaths are mutually non-nested).
	A, B []int
}

// NumPoints returns the number of points.
func (in *Instance) NumPoints() int { return len(in.Beta) }

// NumIntervals returns the number of intervals.
func (in *Instance) NumIntervals() int { return len(in.A) }

// Validate checks the structural requirements of the ordered-interval
// problem: consistent lengths, in-range endpoints, non-empty intervals, and
// strictly increasing A and B.
func (in *Instance) Validate() error {
	if len(in.A) != len(in.B) {
		return fmt.Errorf("len(A)=%d len(B)=%d: %w", len(in.A), len(in.B), ErrBadInstance)
	}
	r := len(in.Beta)
	for i, w := range in.Beta {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("Beta[%d] = %v: %w", i, w, ErrBadInstance)
		}
	}
	for j := range in.A {
		if in.A[j] < 0 || in.B[j] >= r || in.A[j] > in.B[j] {
			return fmt.Errorf("interval %d = [%d,%d] invalid over %d points: %w",
				j, in.A[j], in.B[j], r, ErrBadInstance)
		}
		if j > 0 && (in.A[j] <= in.A[j-1] || in.B[j] <= in.B[j-1]) {
			return fmt.Errorf("interval %d = [%d,%d] does not strictly follow [%d,%d]: %w",
				j, in.A[j], in.B[j], in.A[j-1], in.B[j-1], ErrBadInstance)
		}
	}
	return nil
}

// Solution is a hitting set: the chosen point indices in increasing order and
// their total weight.
type Solution struct {
	Points []int
	Weight float64
}

// covers reports whether the solution hits every interval of in.
func (s *Solution) covers(in *Instance) bool {
	for j := range in.A {
		hit := false
		for _, p := range s.Points {
			if in.A[j] <= p && p <= in.B[j] {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// cutNode is one link of a persistent linked list of chosen points, kept
// in an arena and linked by arena index (noCut ends a list). Cuts for
// different intervals share tails, keeping the sweep O(1) per extension,
// and an arena of plain integers has no pointers: storing a link needs no
// write barrier and the garbage collector never scans the arena. Links and
// points are int32, half the bytes of an int, which caps the sweeps at
// math.MaxInt32 points.
type cutNode struct {
	point int32
	prev  int32
}

// noCut is the empty cut: the link past a list's last node.
const noCut = -1

// materialize returns the points of the cut headed at arena[head] in
// increasing order. A list runs from its largest point down (each node
// extends the cut of an interval that ends before its point), so the
// points are written back to front and need no sort.
func materialize(arena []cutNode, head int32) []int {
	count := 0
	for n := head; n != noCut; n = arena[n].prev {
		count++
	}
	if count == 0 {
		return nil
	}
	out := make([]int, count)
	for n := head; n != noCut; n = arena[n].prev {
		count--
		out[count] = int(arena[n].point)
	}
	return out
}

// checkPoints refuses instances whose point indices do not fit a cutNode.
func checkPoints(r int) error {
	if r > math.MaxInt32 {
		return fmt.Errorf("%d points exceed the sweep's int32 indices: %w", r, ErrBadInstance)
	}
	return nil
}

// Trace records the instrumentation used for the Appendix B / Figure 2(d)
// study of TEMP_S queue behaviour.
type Trace struct {
	// QueueLenSum is the sum of queue lengths observed after each step;
	// divide by Steps for the mean length.
	QueueLenSum int
	// MaxQueueLen is the largest queue length observed.
	MaxQueueLen int
	// Steps is the number of runs processed: one per point of a compressed
	// instance, whose every point is a run of its own.
	Steps int
	// Collapses counts binary-search collapse operations that removed at
	// least one row.
	Collapses int
}

// MeanQueueLen returns the average TEMP_S queue length per step.
func (t *Trace) MeanQueueLen() float64 {
	if t.Steps == 0 {
		return 0
	}
	return float64(t.QueueLenSum) / float64(t.Steps)
}

// SolveTempS runs the paper's Algorithm 4.1. It validates in and returns
// the minimum-weight hitting set. Empty instances (no intervals) yield the
// empty solution.
func SolveTempS(in *Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	sol, _, err := SolveTempSCtx(context.Background(), in, nil)
	return sol, err
}

// SolveTempSInstrumented is SolveTempS with queue-behaviour instrumentation.
func SolveTempSInstrumented(in *Instance) (*Solution, *Trace, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	tr := &Trace{}
	sol, _, err := SolveTempSCtx(context.Background(), in, tr)
	return sol, tr, err
}

// row is one entry of the TEMP_S queue: its intervals, from the one after
// the previous row's hi (the first unfinalized interval for the queue's
// head) to hi, currently share the minimum W-value w, achieved by the cut
// headed at arena index cut.
type row struct {
	w   float64
	hi  int32
	cut int32
}

// tempSScratch holds the sweep's working arrays. Nothing in it escapes a
// solve (the cut is materialized into a fresh slice), so the sweep checks
// one out of a package pool per call and the steady-state sweep allocates
// nothing but the cut itself. None of the element types holds a pointer.
type tempSScratch struct {
	sw    []float64
	scut  []int32
	arena []cutNode
	rows  []row
}

var tempSPool = sync.Pool{New: func() any { return new(tempSScratch) }}

// grab returns the four arrays sized for p intervals and at most runs
// runs, reusing pooled capacity. The arena comes back with length 0 and
// capacity ≥ runs: the sweep appends one node per run, so appending never
// reallocates.
func (s *tempSScratch) grab(p, runs int) (sw []float64, scut []int32, arena []cutNode, rows []row) {
	if cap(s.sw) < p {
		s.sw = make([]float64, p)
	}
	if cap(s.scut) < p {
		s.scut = make([]int32, p)
	}
	if cap(s.rows) < p {
		s.rows = make([]row, p)
	}
	if cap(s.arena) < runs {
		s.arena = make([]cutNode, 0, runs)
	}
	return s.sw[:p], s.scut[:p], s.arena[:0], s.rows[:p]
}

// SolveTempSCtx is SolveTempS for a caller that already holds a valid
// instance: it runs SolveTempSIntervals over in's points and intervals
// without re-checking in. On a compressed instance (prime.Analyze's) every
// run is a single point. A non-nil tr records the queue behaviour.
func SolveTempSCtx(ctx context.Context, in *Instance, tr *Trace) (*Solution, int64, error) {
	points, w, iters, err := SolveTempSIntervals(ctx, in.Beta, in.A, in.B, tr)
	if err != nil {
		return nil, iters, err
	}
	return &Solution{Points: points, Weight: w}, iters, nil
}

// SolveTempSIntervals is the paper's Algorithm 4.1 over points weighted by
// beta and the intervals [a[j], b[j]] over them, which must be a valid
// Instance's (it does not check them). It returns the chosen points in
// increasing order, their weight, and the number of runs it processed.
//
// The sweep walks runs, not points: a run is a maximal stretch of points
// covered by the same intervals, so runs break at every a[j] and b[j]+1,
// and uncovered gaps are skipped. Points of one run are interchangeable but
// for weight, so each run contributes its lightest point, the first on
// ties — the non-redundant edge of §2.3, found here in the O(n) scan rather
// than in a compressed instance built first. The sweep polls ctx every 256
// runs and aborts with its error once it is cancelled. A non-nil tr
// records the queue behaviour.
func SolveTempSIntervals(ctx context.Context, beta []float64, a, b []int, tr *Trace) (points []int, weight float64, iters int64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	p := len(a)
	if p == 0 {
		return nil, 0, 0, nil
	}
	if err := checkPoints(len(beta)); err != nil {
		return nil, 0, 0, err
	}
	// Working arrays from the package pool: the finalized per-interval optima
	// (the paper's S_i weight and cut), the cut-node arena (one node per run,
	// and there are at most 2p−1 runs, so a single allocation replaces many
	// small ones — this constant factor is what the O(n + p log q) claim is
	// sold on), and the TEMP_S queue rows[head..tail], whose W-values are
	// sorted in increasing order from head to tail (paper §2.3.1: "the third
	// column will always remain sorted in increasing order").
	scratch := tempSPool.Get().(*tempSScratch)
	defer tempSPool.Put(scratch)
	sw, scut, arena, rows := scratch.grab(p, min(2*p-1, len(beta)))
	head, tail := 0, -1
	closed := 0 // the first interval not yet finalized
	next := 0   // the next interval to admit
	e := 0      // the first point of the current run
	for {
		// Finalize intervals whose last point precedes e. Their minimum is
		// settled; at most one per step for a valid instance, whose runs
		// break after every interval's last point.
		for closed < next && b[closed] < e {
			sw[closed], scut[closed] = rows[head].w, rows[head].cut
			closed++
			if int(rows[head].hi) < closed {
				head++
			}
		}
		// The queue holds the intervals closed..next-1. The first of them,
		// or with an empty queue the next to start, ends first; with an empty
		// queue the run starts at the next interval, skipping the uncovered
		// gap. gamma(e), the last interval not covering the run, is closed−1.
		if closed == next {
			if next == p {
				return materialize(arena, scut[p-1]), sw[p-1], iters, nil
			}
			e = max(e, a[next])
		}
		starts := next < p && a[next] == e
		// The run ends before the first interval's end or the next start.
		n := next // the next interval to start after e
		if starts {
			n++
		}
		end := b[closed] + 1
		if n < p && a[n] < end {
			end = a[n]
		}
		if end <= e {
			// An interval was skipped or is empty: impossible for a valid
			// instance, but guard rather than loop or return a wrong answer.
			return nil, 0, iters, fmt.Errorf("intervals out of order at point %d: %w", e, ErrBadInstance)
		}
		// The sweep is the algorithm's main loop; poll for cancellation
		// every 256 runs so huge instances stay responsive.
		iters++
		if iters&255 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, iters, err
			}
		}
		best, bw := e, beta[e] // the run's lightest point, the first on ties
		for i, v := range beta[e+1 : end] {
			if v < bw {
				best, bw = e+1+i, v
			}
		}
		e = end
		prevW, prevCut := 0.0, int32(noCut)
		if closed > 0 {
			prevW, prevCut = sw[closed-1], scut[closed-1]
		}
		w := bw + prevW
		cut := int32(len(arena))
		arena = append(arena, cutNode{point: int32(best), prev: prevCut})
		// Collapse: all rows with W-value >= w now share minimum w achieved
		// by best. Unless the bottom row is lighter, binary search for the
		// first such row (paper step 2a), then merge the suffix in O(1) by
		// index arithmetic.
		if head <= tail && rows[tail].w >= w {
			lo, hi := head, tail
			for lo < hi {
				m := int(uint(lo+hi) >> 1)
				if rows[m].w < w {
					lo = m + 1
				} else {
					hi = m
				}
			}
			rows[lo] = row{w: w, hi: rows[tail].hi, cut: cut}
			tail = lo
			if tr != nil {
				tr.Collapses++
			}
		}
		// Admit an interval starting at this run. Its only processed point
		// is best, so its current minimum is exactly w.
		if starts {
			if head <= tail && rows[tail].w == w {
				// The bottom row's minimum is already w and its cut contains
				// best (the collapse above just installed it), so the new
				// interval joins that row (paper: "increase the value of R
				// column BOTTOM row by one").
				rows[tail].hi = int32(next)
			} else {
				tail++
				rows[tail] = row{w: w, hi: int32(next), cut: cut}
			}
			next++
		}
		if tr != nil {
			tr.Steps++
			if l := tail - head + 1; l > 0 {
				tr.QueueLenSum += l
				if l > tr.MaxQueueLen {
					tr.MaxQueueLen = l
				}
			}
		}
	}
}

// SolveNaiveDP evaluates the paper's recurrence directly, scanning every
// point of every interval: O(Σ|P_i|) time, up to O(n·p). It is the "naive
// version for ease of understanding" of §2.3 and serves as the primary
// correctness oracle for SolveTempS.
func SolveNaiveDP(in *Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	p := in.NumIntervals()
	if p == 0 {
		return &Solution{}, nil
	}
	r := in.NumPoints()
	if err := checkPoints(r); err != nil {
		return nil, err
	}
	// first[e] = first interval containing point e, or -1.
	first := make([]int, r)
	for e := range first {
		first[e] = -1
	}
	for j := p - 1; j >= 0; j-- {
		for e := in.A[j]; e <= in.B[j]; e++ {
			first[e] = j
		}
	}
	sw := make([]float64, p)
	scut := make([]int32, p)
	arena := make([]cutNode, 0, p)
	for j := 0; j < p; j++ {
		best := math.Inf(1)
		bestE, bestPrev := -1, int32(noCut)
		for e := in.A[j]; e <= in.B[j]; e++ {
			gamma := first[e] - 1
			prevW, prevCut := 0.0, int32(noCut)
			if gamma >= 0 {
				prevW, prevCut = sw[gamma], scut[gamma]
			}
			if w := in.Beta[e] + prevW; w < best {
				best, bestE, bestPrev = w, e, prevCut
			}
		}
		sw[j], scut[j] = best, int32(len(arena))
		arena = append(arena, cutNode{point: int32(bestE), prev: bestPrev})
	}
	return &Solution{Points: materialize(arena, scut[p-1]), Weight: sw[p-1]}, nil
}

// SolveBrute enumerates all point subsets; it is exponential and refuses
// instances with more than 22 points. For tests only.
func SolveBrute(in *Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	r := in.NumPoints()
	if in.NumIntervals() == 0 {
		return &Solution{}, nil
	}
	if r > 22 {
		return nil, fmt.Errorf("%d points: %w", r, ErrTooLarge)
	}
	best := math.Inf(1)
	var bestMask uint32
	for mask := uint32(0); mask < 1<<r; mask++ {
		var w float64
		for i := 0; i < r; i++ {
			if mask&(1<<i) != 0 {
				w += in.Beta[i]
			}
		}
		if w >= best {
			continue
		}
		ok := true
		for j := range in.A {
			hit := false
			for e := in.A[j]; e <= in.B[j]; e++ {
				if mask&(1<<e) != 0 {
					hit = true
					break
				}
			}
			if !hit {
				ok = false
				break
			}
		}
		if ok {
			best = w
			bestMask = mask
		}
	}
	sol := &Solution{Weight: best}
	for i := 0; i < r; i++ {
		if bestMask&(1<<i) != 0 {
			sol.Points = append(sol.Points, i)
		}
	}
	return sol, nil
}
