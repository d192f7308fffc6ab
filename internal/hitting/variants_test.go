package hitting

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prime"
	"repro/internal/workload"
)

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
// variants return exactly the same optima as SolveTempS, which the tests
// below check; BenchmarkTempSSearchVariants compares the three. They live in
// this test file because no binary or facade export uses them: they are
// reproduction evidence for EXPERIMENTS.md, not library code.

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

// solveTempSSearch is SolveTempSCtx, point by point as it walks a
// compressed instance, with a pluggable collapse search. It
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
	scut := make([]int32, p)
	arena := make([]cutNode, 0, r)
	rows := make([]row, p)
	head, tail := 0, -1
	closed, next := 0, 0
	for e := 0; e < r; e++ {
		for closed < next && in.B[closed] < e {
			sw[closed], scut[closed] = rows[head].w, rows[head].cut
			closed++
			if int(rows[head].hi) < closed {
				head++
			}
		}
		starts := next < p && in.A[next] == e
		if closed == next && !starts {
			continue
		}
		prevW, prevCut := 0.0, int32(noCut)
		if closed > 0 {
			prevW, prevCut = sw[closed-1], scut[closed-1]
		}
		w := in.Beta[e] + prevW
		cut := int32(len(arena))
		arena = append(arena, cutNode{point: int32(e), prev: prevCut})
		if s := search(rows, head, tail, w); s <= tail {
			rows[s] = row{w: w, hi: rows[tail].hi, cut: cut}
			tail = s
		}
		if starts {
			if head <= tail && rows[tail].w == w {
				rows[tail].hi = int32(next)
			} else {
				tail++
				rows[tail] = row{w: w, hi: int32(next), cut: cut}
			}
			next++
		}
	}
	if next < p {
		return nil, ErrBadInstance
	}
	for ; closed < p; closed++ {
		if int(rows[head].hi) < closed {
			head++
		}
		sw[closed], scut[closed] = rows[head].w, rows[head].cut
	}
	return &Solution{Points: materialize(arena, scut[p-1]), Weight: sw[p-1]}, nil
}

func TestVariantsMatchOnHandCases(t *testing.T) {
	cases := []Instance{
		{},
		{Beta: []float64{5, 2, 9}, A: []int{0}, B: []int{2}},
		{Beta: []float64{1, 9, 5, 9, 1}, A: []int{0, 2}, B: []int{2, 4}},
		{Beta: []float64{8, 2, 8, 2, 8}, A: []int{0, 1, 2}, B: []int{2, 3, 4}},
		{Beta: []float64{0, 5, 0}, A: []int{0, 1}, B: []int{1, 2}},
	}
	for i, in := range cases {
		base, err := SolveTempS(&in)
		if err != nil {
			t.Fatalf("case %d base: %v", i, err)
		}
		for name, f := range map[string]func(*Instance) (*Solution, error){
			"gallop":    SolveTempSGallop,
			"amortized": SolveTempSAmortized,
		} {
			got, err := f(&in)
			if err != nil {
				t.Fatalf("case %d %s: %v", i, name, err)
			}
			if math.Abs(got.Weight-base.Weight) > 1e-9 {
				t.Errorf("case %d: %s weight %v != base %v", i, name, got.Weight, base.Weight)
			}
			if !got.covers(&in) {
				t.Errorf("case %d: %s solution does not cover", i, name)
			}
		}
	}
}

func TestVariantsMatchOnRandomInstances(t *testing.T) {
	r := workload.NewRNG(4242)
	for trial := 0; trial < 300; trial++ {
		in := randomInstance(r, 200)
		base, err := SolveTempS(in)
		if err != nil {
			t.Fatalf("base: %v", err)
		}
		gallop, err := SolveTempSGallop(in)
		if err != nil {
			t.Fatalf("gallop: %v", err)
		}
		amortized, err := SolveTempSAmortized(in)
		if err != nil {
			t.Fatalf("amortized: %v", err)
		}
		if math.Abs(gallop.Weight-base.Weight) > 1e-9 || math.Abs(amortized.Weight-base.Weight) > 1e-9 {
			t.Fatalf("weights diverge: base %v gallop %v amortized %v on %+v",
				base.Weight, gallop.Weight, amortized.Weight, in)
		}
	}
}

func TestVariantsMatchOnPrimeInstances(t *testing.T) {
	r := workload.NewRNG(777)
	for trial := 0; trial < 100; trial++ {
		n := 50 + r.Intn(500)
		nodeW := make([]float64, n)
		edgeW := make([]float64, n-1)
		for i := range nodeW {
			nodeW[i] = r.Uniform(1, 50)
		}
		for i := range edgeW {
			edgeW[i] = r.Uniform(1, 100)
		}
		k := r.Uniform(60, 600)
		pinst, _, err := prime.Analyze(nodeW, edgeW, k)
		if err != nil {
			trial--
			continue
		}
		in := &Instance{Beta: pinst.Beta, A: pinst.A, B: pinst.B}
		base, err := SolveTempS(in)
		if err != nil {
			t.Fatalf("base: %v", err)
		}
		gallop, err := SolveTempSGallop(in)
		if err != nil {
			t.Fatalf("gallop: %v", err)
		}
		if math.Abs(gallop.Weight-base.Weight) > 1e-9 {
			t.Fatalf("gallop %v != base %v", gallop.Weight, base.Weight)
		}
	}
}

func TestGallopSearchAgainstBinary(t *testing.T) {
	// Direct unit test of the search primitive over a synthetic sorted
	// window.
	rows := make([]row, 12)
	ws := []float64{1, 1, 2, 3, 5, 5, 6, 9, 9, 10, 12, 20}
	for i, w := range ws {
		rows[i].w = w
	}
	for head := 0; head < len(rows); head++ {
		for tail := head - 1; tail < len(rows); tail++ {
			for _, w := range []float64{0, 1, 4, 5, 9.5, 20, 21} {
				want := tail + 1
				for s := head; s <= tail; s++ {
					if rows[s].w >= w {
						want = s
						break
					}
				}
				if got := gallopSearch(rows, head, tail, w); got != want {
					t.Fatalf("gallopSearch(head=%d tail=%d w=%v) = %d, want %d", head, tail, w, got, want)
				}
				if got := popSearch(rows, head, tail, w); got != want {
					t.Fatalf("popSearch(head=%d tail=%d w=%v) = %d, want %d", head, tail, w, got, want)
				}
			}
		}
	}
}

// Property: all three sweep implementations agree for arbitrary seeds.
func TestVariantEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := workload.NewRNG(seed)
		in := randomInstance(r, 300)
		a, e1 := SolveTempS(in)
		b, e2 := SolveTempSGallop(in)
		c, e3 := SolveTempSAmortized(in)
		if e1 != nil || e2 != nil || e3 != nil {
			return false
		}
		return math.Abs(a.Weight-b.Weight) < 1e-9 && math.Abs(a.Weight-c.Weight) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// BenchmarkTempSSearchVariants compares the paper's binary-search collapse
// against the §2.3.2 future-work galloping search and the amortized pop
// loop, on the same compressed instances.
func BenchmarkTempSSearchVariants(b *testing.B) {
	p := workload.RandomPath(workload.NewRNG(11), 200000,
		workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	for _, ratio := range []float64{1.2, 20} {
		k := ratio * p.MaxNodeWeight()
		ivs, err := prime.Find(p.NodeW, k)
		if err != nil {
			b.Fatal(err)
		}
		ci := prime.Compress(p.EdgeW, ivs)
		in := &Instance{Beta: ci.Beta, A: ci.A, B: ci.B}
		for _, v := range []struct {
			name string
			f    func(*Instance) (*Solution, error)
		}{
			{"binary", SolveTempS},
			{"gallop", SolveTempSGallop},
			{"amortized", SolveTempSAmortized},
		} {
			b.Run(fmt.Sprintf("K=%.1fxWmax/%s", ratio, v.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := v.f(in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
