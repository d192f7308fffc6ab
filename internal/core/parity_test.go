package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/hitting"
	"repro/internal/prime"
	"repro/internal/workload"
)

// refCutNode is a cut list as the TEMP_S sweep kept it before it linked
// nodes by arena index: a heap pointer per link.
type refCutNode struct {
	point int
	prev  *refCutNode
}

// refTempS is the TEMP_S sweep with pointer-linked cut lists and a cut
// materialized by sort.Ints, the reference the index-linked sweep must
// reproduce exactly: same points, same weight, same iteration count.
func refTempS(in *hitting.Instance) (points []int, weight float64, iters int64) {
	p, r := len(in.A), len(in.Beta)
	if p == 0 {
		return nil, 0, 0
	}
	type refRow struct {
		lo, hi int
		w      float64
		cut    *refCutNode
	}
	sw := make([]float64, p)
	scut := make([]*refCutNode, p)
	rows := make([]refRow, p)
	head, tail, next := 0, -1, 0
	for e := 0; e < r; e++ {
		iters++
		for head <= tail && in.B[rows[head].lo] < e {
			j := rows[head].lo
			sw[j], scut[j] = rows[head].w, rows[head].cut
			rows[head].lo++
			if rows[head].lo > rows[head].hi {
				head++
			}
		}
		starts := next < p && in.A[next] == e
		var gamma int
		switch {
		case head <= tail:
			gamma = rows[head].lo - 1
		case starts:
			gamma = next - 1
		default:
			continue
		}
		var prevW float64
		var prevCut *refCutNode
		if gamma >= 0 {
			prevW, prevCut = sw[gamma], scut[gamma]
		}
		w := in.Beta[e] + prevW
		cut := &refCutNode{point: e, prev: prevCut}
		s := head + sort.Search(tail-head+1, func(i int) bool { return rows[head+i].w >= w })
		if s <= tail {
			rows[s] = refRow{lo: rows[s].lo, hi: rows[tail].hi, w: w, cut: cut}
			tail = s
		}
		if starts {
			if head <= tail && rows[tail].w == w {
				rows[tail].hi = next
			} else {
				tail++
				rows[tail] = refRow{lo: next, hi: next, w: w, cut: cut}
			}
			next++
		}
	}
	for ; head <= tail; head++ {
		for j := rows[head].lo; j <= rows[head].hi; j++ {
			sw[j], scut[j] = rows[head].w, rows[head].cut
		}
	}
	for n := scut[p-1]; n != nil; n = n.prev {
		points = append(points, n.point)
	}
	sort.Ints(points)
	return points, sw[p-1], iters
}

// refPartition is the old build-partition step: the cut mapped through
// Orig into a second slice, then summarized through Path.Components.
func refPartition(t *testing.T, p *graph.Path, k float64) (*PathPartition, int64) {
	t.Helper()
	inst, _, err := prime.Analyze(p.NodeW, p.EdgeW, k)
	if err != nil {
		t.Fatal(err)
	}
	pts, _, iters := refTempS(&hitting.Instance{Beta: inst.Beta, A: inst.A, B: inst.B})
	cut := make([]int, len(pts))
	for i, pt := range pts {
		cut[i] = inst.Orig[pt]
	}
	cw, err := p.CutWeight(cut)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := p.MaxCutEdgeWeight(cut)
	if err != nil {
		t.Fatal(err)
	}
	comps, err := p.Components(cut)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]float64, len(comps))
	var run float64
	for i, c := range comps {
		start := run
		for v := c[0]; v <= c[1]; v++ {
			run += p.NodeW[v]
		}
		ws[i] = run - start
	}
	return &PathPartition{Cut: cut, CutWeight: cw, Bottleneck: bn, ComponentWeights: ws, K: k}, iters
}

// firstBitDiff is the first index where a and b differ as float bits, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range min(len(a), len(b)) {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestBandwidthMatchesReference pins Bandwidth to the reference pipeline
// bit for bit on 2,400 seeded solves: float and 0–3 integer weights, and K
// at 1.2, 4 and 20 × the largest task and at the weight of a window around
// it, where ties at exactly K decide the prime subpaths.
func TestBandwidthMatchesReference(t *testing.T) {
	kinds := []struct {
		name string
		w    workload.Weights
		int  bool
	}{
		{"float", workload.UniformWeights(0, 100), false},
		{"int0-3", workload.UniformWeights(0, 4), true},
	}
	solves := 0
	for seed := uint64(0); seed < 300; seed++ {
		for _, kind := range kinds {
			r := workload.NewRNG(seed)
			p := workload.RandomPath(r, 2+r.Intn(300), kind.w, kind.w)
			if kind.int {
				for i := range p.NodeW {
					p.NodeW[i] = math.Floor(p.NodeW[i])
				}
				for i := range p.EdgeW {
					p.EdgeW[i] = math.Floor(p.EdgeW[i])
				}
			}
			top := 0
			for i, w := range p.NodeW {
				if w > p.NodeW[top] {
					top = i
				}
			}
			if p.NodeW[top] == 0 {
				p.NodeW[top] = 1
			}
			lo, hi := r.Intn(top+1), top+r.Intn(p.Len()-top)
			window := 0.0
			for v := lo; v <= hi; v++ {
				window += p.NodeW[v]
			}
			for _, k := range []float64{1.2 * p.NodeW[top], 4 * p.NodeW[top], 20 * p.NodeW[top], window} {
				name := fmt.Sprintf("seed=%d/%s/n=%d/K=%v", seed, kind.name, p.Len(), k)
				want, wantIters := refPartition(t, p, k)
				got, iters, err := Bandwidth(ctx, p, k)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				switch {
				case !slices.Equal(got.Cut, want.Cut):
					t.Errorf("%s: cut %v, reference %v", name, got.Cut, want.Cut)
				case math.Float64bits(got.CutWeight) != math.Float64bits(want.CutWeight):
					t.Errorf("%s: cut weight %v, reference %v", name, got.CutWeight, want.CutWeight)
				case math.Float64bits(got.Bottleneck) != math.Float64bits(want.Bottleneck):
					t.Errorf("%s: bottleneck %v, reference %v", name, got.Bottleneck, want.Bottleneck)
				case firstBitDiff(got.ComponentWeights, want.ComponentWeights) >= 0:
					i := firstBitDiff(got.ComponentWeights, want.ComponentWeights)
					t.Errorf("%s: %d component weights, reference %d; first difference at %d",
						name, len(got.ComponentWeights), len(want.ComponentWeights), i)
				case iters != wantIters:
					t.Errorf("%s: %d iterations, reference %d", name, iters, wantIters)
				}
				solves++
			}
		}
	}
	if solves < 1000 {
		t.Fatalf("%d solves, want at least 1000", solves)
	}
}
