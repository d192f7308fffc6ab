package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/verify/oracle"
)

// FuzzBandwidthAgreement drives the paper's algorithm and the two DP
// baselines with adversarial byte-derived instances and requires exact
// agreement on the optimal cut weight (or identical infeasibility), and
// the paper's algorithm to return the reference pipeline's answer bit for
// bit (checkMatchesReference). Run with
// `go test -fuzz=FuzzBandwidthAgreement ./internal/core` to explore; the
// seed corpus runs under plain `go test`.
func FuzzBandwidthAgreement(f *testing.F) {
	f.Add([]byte{10, 20, 30, 5, 5}, byte(40))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, byte(2))
	f.Add([]byte{255, 0, 255, 0, 255}, byte(255))
	f.Add([]byte{7}, byte(7))
	// Six tasks of weight 2 and five edges of weight 5 at K = 9: the prime
	// subpaths are edges [0,3] and [1,4], so edges 1–3 form one run of
	// equal weights, and the first of them, edge 1, is the cut.
	f.Add([]byte{1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1}, byte(8))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw byte) {
		if len(raw) < 1 || len(raw) > 300 {
			t.Skip()
		}
		// Odd bytes become node weights, even bytes edge weights.
		n := len(raw)/2 + 1
		nodeW := make([]float64, n)
		edgeW := make([]float64, n-1)
		for i := range nodeW {
			nodeW[i] = float64(raw[(2*i)%len(raw)]) + 1
		}
		for i := range edgeW {
			edgeW[i] = float64(raw[(2*i+1)%len(raw)])
		}
		p, err := graph.NewPath(nodeW, edgeW)
		if err != nil {
			t.Fatalf("generator produced invalid path: %v", err)
		}
		k := float64(kRaw) + 1
		a, _, errA := Bandwidth(ctx, p, k)
		b, _, errB := BandwidthDeque(ctx, p, k)
		c, _, errC := BandwidthHeap(ctx, p, k)
		if (errA == nil) != (errB == nil) || (errB == nil) != (errC == nil) {
			t.Fatalf("error disagreement: %v / %v / %v", errA, errB, errC)
		}
		if errA != nil {
			if !errors.Is(errA, ErrInfeasible) {
				t.Fatalf("unexpected error class: %v", errA)
			}
			return
		}
		if math.Abs(a.CutWeight-b.CutWeight) > 1e-9 || math.Abs(b.CutWeight-c.CutWeight) > 1e-9 {
			t.Fatalf("weights diverge: TempS %v, deque %v, heap %v\nnodeW=%v\nedgeW=%v\nk=%v",
				a.CutWeight, b.CutWeight, c.CutWeight, nodeW, edgeW, k)
		}
		if err := CheckPathFeasible(p, a.Cut, k); err != nil {
			t.Fatalf("TempS cut infeasible: %v", err)
		}
		checkMatchesReference(t, fmt.Sprintf("nodeW=%v edgeW=%v k=%v", nodeW, edgeW, k), p, k)
		// Small instances are additionally checked against the shared
		// ground-truth oracle, not just for mutual agreement.
		if p.NumEdges() <= oracle.MaxBruteEdges {
			want, err := oracle.PathDP(p, k)
			if err != nil {
				t.Fatalf("oracle.PathDP: %v", err)
			}
			if !want.Feasible {
				t.Fatalf("solvers found a cut but the oracle says infeasible\nnodeW=%v\nedgeW=%v\nk=%v", nodeW, edgeW, k)
			}
			if math.Abs(a.CutWeight-want.MinCutWeight) > 1e-9 {
				t.Fatalf("CutWeight = %v, oracle = %v\nnodeW=%v\nedgeW=%v\nk=%v",
					a.CutWeight, want.MinCutWeight, nodeW, edgeW, k)
			}
		}
	})
}

// FuzzTreeAlgorithms checks that the tree algorithms never return an
// infeasible cut and respect their mutual dominance relations on
// byte-derived random trees, and that the pipeline matches the two-stage
// reference on the tree and on a frozen clone. With thirds set, every
// weight and K is scaled by 1/3, so sums round and their bits depend on the
// order they are summed in; those trees check only the bitwise agreements.
func FuzzTreeAlgorithms(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, byte(12), false)
	f.Add([]byte{100, 100, 100}, byte(200), false)
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, byte(12), true)
	// A bottleneck cut the minproc stage undoes whole: the answer's cut is
	// nil, not empty.
	f.Add([]byte("7\x01\x04\x05\t\x01\x028"), byte('('), true)
	// Summing a super-node in BFS order instead of vertex order prunes one
	// edge more.
	f.Add([]byte("2\x017\x017\x00\x007"), byte(12), true)
	f.Fuzz(func(t *testing.T, raw []byte, kRaw byte, thirds bool) {
		if len(raw) < 2 || len(raw) > 120 {
			t.Skip()
		}
		scale := 1.0
		if thirds {
			scale = 1.0 / 3
		}
		n := len(raw)
		nodeW := make([]float64, n)
		edges := make([]graph.Edge, n-1)
		for i := range nodeW {
			nodeW[i] = (float64(raw[i]%50) + 1) * scale
		}
		for v := 1; v < n; v++ {
			parent := int(raw[v-1]) % v
			edges[v-1] = graph.Edge{U: parent, V: v, W: float64(raw[(v*7)%len(raw)]) * scale}
		}
		tr, err := graph.NewTree(nodeW, edges)
		if err != nil {
			t.Fatalf("generator produced invalid tree: %v", err)
		}
		k := (float64(kRaw) + 1) * scale
		frozen := tr.Clone()
		frozen.Freeze()
		want, wantIters, werr := partitionTreeTwoStageIters(tr, k)
		for _, g := range []*graph.Tree{tr, frozen} {
			got, iters, err := PartitionTree(ctx, g, k)
			if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) || iters != wantIters {
				t.Fatalf("PartitionTree (frozen=%t) = %+v, %d iterations, %v; two-stage %+v, %d, %v",
					g.Frozen(), got, iters, err, want, wantIters, werr)
			}
		}
		bt, _, errB := Bottleneck(ctx, tr, k)
		if fbt, _, err := Bottleneck(ctx, frozen, k); fmt.Sprint(err) != fmt.Sprint(errB) || !reflect.DeepEqual(fbt, bt) {
			t.Fatalf("Bottleneck on the frozen tree = %+v, %v; unfrozen %+v, %v", fbt, err, bt, errB)
		}
		if thirds {
			// A sum within rounding of K can pass in one summation order
			// and fail in another, so the checks below, which sum in other
			// orders than the solvers do, hold for exact sums only.
			return
		}
		mp, _, errM := MinProcessors(ctx, tr, k)
		pt, errP := want, werr // PartitionTree's answer, checked above
		if (errB == nil) != (errM == nil) || (errM == nil) != (errP == nil) {
			t.Fatalf("feasibility disagreement: %v / %v / %v", errB, errM, errP)
		}
		if errB != nil {
			return
		}
		for name, cut := range map[string][]int{"bottleneck": bt.Cut, "minproc": mp.Cut, "pipeline": pt.Cut} {
			if err := CheckTreeFeasible(tr, cut, k); err != nil {
				t.Fatalf("%s cut infeasible: %v", name, err)
			}
		}
		if mp.NumComponents() > bt.NumComponents() {
			t.Fatalf("minproc used more components (%d) than the greedy bottleneck cut (%d)",
				mp.NumComponents(), bt.NumComponents())
		}
		if pt.Bottleneck > bt.Bottleneck+1e-9 {
			t.Fatalf("pipeline bottleneck %v exceeds stage bottleneck %v", pt.Bottleneck, bt.Bottleneck)
		}
		if pt.NumComponents() < mp.NumComponents() {
			t.Fatalf("pipeline components %d below the unconstrained minimum %d",
				pt.NumComponents(), mp.NumComponents())
		}
		// The pipeline's component weights are the input tree's own, bit for
		// bit.
		ws, err := tr.ComponentWeights(pt.Cut)
		if err != nil || firstBitDiff(pt.ComponentWeights, ws) >= 0 {
			t.Fatalf("PartitionTree component weights %v, ComponentWeights(%v) = %v, %v",
				pt.ComponentWeights, pt.Cut, ws, err)
		}
		// Small instances are additionally checked against the shared
		// exhaustive oracle.
		if tr.NumEdges() <= oracle.MaxBruteEdges {
			want, err := oracle.TreeBrute(tr, k)
			if err != nil {
				t.Fatalf("oracle.TreeBrute: %v", err)
			}
			if !want.Feasible {
				t.Fatalf("solvers found cuts but the oracle says infeasible\nnodeW=%v edges=%v k=%v", nodeW, edges, k)
			}
			if math.Abs(bt.Bottleneck-want.Bottleneck) > 1e-9 {
				t.Fatalf("Bottleneck = %v, oracle = %v\nnodeW=%v edges=%v k=%v",
					bt.Bottleneck, want.Bottleneck, nodeW, edges, k)
			}
			if mp.NumComponents() != want.Components {
				t.Fatalf("minproc components = %d, oracle = %d\nnodeW=%v edges=%v k=%v",
					mp.NumComponents(), want.Components, nodeW, edges, k)
			}
		}
	})
}

// FuzzBottleneckAgreement requires the reverse union-find sweep of
// Bottleneck to return exactly the paper greedy's cut on byte-derived trees.
// Weights are small integers, so every component sum is exact and edge
// weights tie often, and K is the weight of an actual subtree, so the
// sweep's stopping union lands on K exactly rather than near it.
func FuzzBottleneckAgreement(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, byte(3))
	f.Add([]byte{7, 7, 7, 7, 7, 7}, byte(0))
	f.Add([]byte{200}, byte(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, byte(5))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw byte) {
		if len(raw) < 1 || len(raw) > 200 {
			t.Skip()
		}
		n := len(raw)
		nodeW := make([]float64, n)
		edges := make([]graph.Edge, n-1)
		for i := range nodeW {
			nodeW[i] = float64(raw[i]%50) + 1
		}
		for v := 1; v < n; v++ {
			parent := int(raw[v-1]) % v
			edges[v-1] = graph.Edge{U: parent, V: v, W: float64(raw[(v*7)%n] % 8)}
		}
		tr, err := graph.NewTree(nodeW, edges)
		if err != nil {
			t.Fatalf("generator produced invalid tree: %v", err)
		}
		// Parents precede children, so one backward pass sums subtrees.
		sub := append([]float64(nil), nodeW...)
		for v := n - 1; v > 0; v-- {
			sub[edges[v-1].U] += sub[v]
		}
		k := math.Max(sub[int(kRaw)%n], tr.MaxNodeWeight())
		a, _, errA := Bottleneck(ctx, tr, k)
		b, _, errB := BottleneckGreedy(ctx, tr, k)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("error mismatch: sweep %v, greedy %v", errA, errB)
		}
		if errA != nil {
			return
		}
		if !reflect.DeepEqual(a.Cut, b.Cut) {
			t.Fatalf("cuts differ at K=%v: sweep %v, greedy %v\nnodeW=%v edges=%v", k, a.Cut, b.Cut, nodeW, edges)
		}
		same := func(name string, x, y float64) {
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%s differs: sweep %v, greedy %v", name, x, y)
			}
		}
		same("CutWeight", a.CutWeight, b.CutWeight)
		same("Bottleneck", a.Bottleneck, b.Bottleneck)
		if len(a.ComponentWeights) != len(b.ComponentWeights) {
			t.Fatalf("component counts differ: %d vs %d", len(a.ComponentWeights), len(b.ComponentWeights))
		}
		for i := range a.ComponentWeights {
			same(fmt.Sprintf("ComponentWeights[%d]", i), a.ComponentWeights[i], b.ComponentWeights[i])
		}
	})
}
