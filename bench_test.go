// Benchmarks regenerating the runtime-shaped rows of DESIGN.md's experiment
// index. Each Benchmark maps to a figure or table:
//
//	BenchmarkFig2PrimeSubpaths      — FIG2-A/B: instance analysis cost across K
//	BenchmarkBandwidth*             — FIG2-C / TAB-CMP: the solver ladder
//	BenchmarkTempSCompressionAblation — DESIGN §5 ablation: the sweep over
//	                                  a compressed instance vs. over the
//	                                  raw edges, finding runs as it goes
//	BenchmarkBottleneck             — §2.1 bucketed reverse union-find sweep,
//	                                  expected O(n α(n)), one-bucket worst case
//	BenchmarkBottleneckPaperGreedy  — §2.1 paper greedy, O(n²)
//	BenchmarkMinProcessors          — §2.2
//	BenchmarkPartitionTreePipeline  — §2.2 full pipeline
//	BenchmarkSumOfMaxTree           — sum-of-max Pareto DP (arXiv 2503.11526)
//	BenchmarkMaxMinTree             — max–min parametric search (arXiv 1711.00599)
//	BenchmarkCertifyTree            — tree certificates on the served 5k tree
//	BenchmarkCCP*                   — TAB-CMP prior-work chains-on-chains ladder
//	BenchmarkSumBottleneck          — prior work: Bokhari's linear-array model
//	BenchmarkHostSatellite          — prior work: host-satellite trees
//	BenchmarkTreeBandwidthExact     — THM1: pseudo-polynomial DP cost
//	BenchmarkTreeBandwidthGreedy    — THM1: heuristic sweep and redundancy pass
//	BenchmarkLogicsimProfile        — APP-DES substrate cost
//	BenchmarkSchedSimulate          — APP-DES/RT replay cost
//
// Run: go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro"
	"repro/internal/arch"
	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hitting"
	"repro/internal/hostsat"
	"repro/internal/logicsim"
	"repro/internal/prime"
	"repro/internal/sched"
	"repro/internal/sumbottleneck"
	"repro/internal/treecut"
	"repro/internal/verify"
	"repro/internal/workload"
)

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// benchPath draws the Figure 2 instance family: uniform weights on [1,100].
func benchPath(seed uint64, n int) *graph.Path {
	r := workload.NewRNG(seed)
	return workload.RandomPath(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
}

func BenchmarkFig2PrimeSubpaths(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		for _, ratio := range []float64{1.2, 4, 20} {
			p := benchPath(1, n)
			k := ratio * p.MaxNodeWeight()
			b.Run(fmt.Sprintf("n=%d/K=%.1fxWmax", n, ratio), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := prime.Analyze(p.NodeW, p.EdgeW, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// bandwidthLadder benches one solver across sizes and K ratios.
func bandwidthLadder(b *testing.B, f func(context.Context, *graph.Path, float64) (*core.PathPartition, int64, error), sizes []int) {
	for _, n := range sizes {
		for _, ratio := range []float64{1.2, 4, 20} {
			p := benchPath(2, n)
			k := ratio * p.MaxNodeWeight()
			b.Run(fmt.Sprintf("n=%d/K=%.1fxWmax", n, ratio), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := f(context.Background(), p, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkBandwidthTempS(b *testing.B) {
	bandwidthLadder(b, core.Bandwidth, []int{1000, 10000, 100000, 1000000})
}

func BenchmarkBandwidthHeap(b *testing.B) {
	bandwidthLadder(b, core.BandwidthHeap, []int{1000, 10000, 100000, 1000000})
}

func BenchmarkBandwidthDeque(b *testing.B) {
	bandwidthLadder(b, core.BandwidthDeque, []int{1000, 10000, 100000, 1000000})
}

func BenchmarkBandwidthNaive(b *testing.B) {
	bandwidthLadder(b, core.BandwidthNaive, []int{1000, 10000})
}

// BenchmarkTempSCompressionAblation solves the same hitting instance over
// the non-redundant edges of §2.3.1, compressed beforehand (compressed), and
// over the raw edges (raw-runs), where the sweep finds each run's lightest
// edge as it walks, as the served solver does. Every point of the compressed
// instance is a run, so both rows take the same r steps; raw-runs adds the
// O(n) scan that Compress does outside the timed loop.
func BenchmarkTempSCompressionAblation(b *testing.B) {
	p := benchPath(3, 100000)
	k := 4 * p.MaxNodeWeight()
	ivs, err := prime.Find(p.NodeW, k)
	if err != nil {
		b.Fatal(err)
	}
	compressed := prime.Compress(p.EdgeW, ivs)
	withC := &hitting.Instance{Beta: compressed.Beta, A: compressed.A, B: compressed.B}
	// Raw: intervals address raw edge indices directly.
	rawA := make([]int, len(ivs))
	rawB := make([]int, len(ivs))
	for i, iv := range ivs {
		rawA[i], rawB[i] = iv.A, iv.B
	}
	raw := &hitting.Instance{Beta: p.EdgeW, A: rawA, B: rawB}
	b.Run("compressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hitting.SolveTempS(withC); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-runs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hitting.SolveTempS(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchTree(seed uint64, n int) *graph.Tree {
	r := workload.NewRNG(seed)
	return workload.RandomTree(r, n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
}

// benchTreeAnswer is the served tree-routes instance: a 5k-node tree with
// K at 3, 10 and 30 × max task, the ends and middle of the workload's range.
// Each row runs on the tree (…/unfrozen) and on a frozen copy with its
// rooted view built (…/frozen), the tree the daemon's graph store serves.
func benchTreeAnswer(b *testing.B, solve func(context.Context, *graph.Tree, float64) (*core.TreePartition, int64, error)) {
	tr, frozen := benchTree(7, 5000), benchFrozenTree(7, 5000)
	for _, f := range []float64{3, 10, 30} {
		k := f * tr.MaxNodeWeight()
		for _, c := range []struct {
			name string
			tr   *graph.Tree
		}{{"unfrozen", tr}, {"frozen", frozen}} {
			b.Run(fmt.Sprintf("n=5000/K=%vx/%s", f, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := solve(context.Background(), c.tr, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchFrozenTree is benchTree frozen, with its rooted view built.
func benchFrozenTree(seed uint64, n int) *graph.Tree {
	tr := benchTree(seed, n)
	tr.Freeze()
	tr.Root0(nil)
	return tr
}

// oneBucketTree gives every edge but one a distinct weight 1 + i·2⁻⁴⁰, in
// shuffled order, and the last weight MaxFloat64: the outlier packs the rest
// into one weight bucket, which the bottleneck sweep must sort whole.
func oneBucketTree(seed uint64, n int) *graph.Tree {
	tr := benchTree(seed, n)
	r := workload.NewRNG(seed)
	for i, j := range r.Perm(len(tr.Edges)) {
		tr.Edges[j].W = 1 + float64(i)*0x1p-40
	}
	tr.Edges[r.Intn(len(tr.Edges))].W = math.MaxFloat64
	return tr
}

func BenchmarkBottleneck(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		tr := benchTree(4, n)
		k := 4 * tr.MaxNodeWeight()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Bottleneck(context.Background(), tr, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	tr := oneBucketTree(4, 100000)
	k := 4 * tr.MaxNodeWeight()
	b.Run("n=100000/one-bucket", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Bottleneck(context.Background(), tr, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	benchTreeAnswer(b, core.Bottleneck)
}

func BenchmarkBottleneckPaperGreedy(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		tr := benchTree(4, n)
		k := 4 * tr.MaxNodeWeight()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.BottleneckGreedy(context.Background(), tr, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMinProcessors(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		tr := benchTree(5, n)
		k := 4 * tr.MaxNodeWeight()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.MinProcessors(context.Background(), tr, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPartitionTreePipeline(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		tr := benchTree(6, n)
		k := 4 * tr.MaxNodeWeight()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.PartitionTree(context.Background(), tr, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	benchTreeAnswer(b, core.PartitionTree)
}

func BenchmarkSumOfMaxTree(b *testing.B) {
	for _, c := range []struct{ n, parts int }{{1000, 4}, {1000, 7}, {1000, 10}, {5000, 32}} {
		tr := benchTree(7, c.n)
		b.Run(fmt.Sprintf("n=%d/parts=%d", c.n, c.parts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.SumOfMaxTree(context.Background(), tr, c.parts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMaxMinTree(b *testing.B) {
	const n = 5000
	tr := benchTree(8, n)
	for _, parts := range []int{2, 16, 64} {
		b.Run(fmt.Sprintf("n=%d/parts=%d", n, parts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.MaxMinTree(context.Background(), tr, parts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCertifyTree times the tree certificates on the answers of the
// solvers they check, on the served 5k-node tree: minprocs and bottleneck at
// K = 3/10/30 × max task, max–min at 2/16/64 parts. Each row certifies the
// cut on the tree (…/unfrozen) and on a frozen copy (…/frozen), as the
// daemon does.
func BenchmarkCertifyTree(b *testing.B) {
	tr, frozen := benchTree(7, 5000), benchFrozenTree(7, 5000)
	ctx := context.Background()
	run := func(name string, tp *core.TreePartition, err error, certify func(*graph.Tree, []int) (*verify.Certificate, error)) {
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			tr   *graph.Tree
		}{{"unfrozen", tr}, {"frozen", frozen}} {
			b.Run(name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if cert, err := certify(c.tr, tp.Cut); err != nil || !cert.Certified {
						b.Fatalf("certificate %+v, %v", cert, err)
					}
				}
			})
		}
	}
	for _, f := range []float64{3, 10, 30} {
		k := f * tr.MaxNodeWeight()
		tp, _, err := core.MinProcessors(ctx, tr, k)
		run(fmt.Sprintf("minprocs/n=5000/K=%vx", f), tp, err, func(t *graph.Tree, cut []int) (*verify.Certificate, error) {
			return verify.CertifyProcMin(t, k, cut)
		})
		tp, _, err = core.Bottleneck(ctx, tr, k)
		run(fmt.Sprintf("bottleneck/n=5000/K=%vx", f), tp, err, func(t *graph.Tree, cut []int) (*verify.Certificate, error) {
			return verify.CertifyBottleneck(t, k, cut)
		})
	}
	for _, parts := range []int{2, 16, 64} {
		tp, _, err := core.MaxMinTree(ctx, tr, parts)
		run(fmt.Sprintf("maxmin/n=5000/parts=%d", parts), tp, err, func(t *graph.Tree, cut []int) (*verify.Certificate, error) {
			return verify.CertifyMaxMin(t, parts, cut)
		})
	}
}

// TestTreeSolverAllocBudget gates the allocations of the tree solvers on the
// trees their benchmarks use: n=10⁴ for the bound solvers at K = 4 × max
// task and for max–min at 16 parts, n=10³ for sum-of-max at 10 parts. A
// solve allocates only its result and O(1) working arrays; the rest,
// sum-of-max's DP tables included, comes from the pooled scratch. The
// bottleneck and pipeline rows also run on a frozen copy of their tree, the
// one the daemon serves, with its rooted view and edge order cached: those
// rows gate bytes as well.
func TestTreeSolverAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	type solveFunc func(*graph.Tree) (*core.TreePartition, int64, error)
	byBound := func(f func(context.Context, *graph.Tree, float64) (*core.TreePartition, int64, error)) solveFunc {
		return func(tr *graph.Tree) (*core.TreePartition, int64, error) {
			return f(context.Background(), tr, 4*tr.MaxNodeWeight())
		}
	}
	byParts := func(f func(context.Context, *graph.Tree, int) (*core.TreePartition, int64, error), parts int) solveFunc {
		return func(tr *graph.Tree) (*core.TreePartition, int64, error) {
			return f(context.Background(), tr, parts)
		}
	}
	for _, c := range []struct {
		name   string
		n      int
		seed   uint64
		frozen bool
		budget float64
		// bytes is the budget in bytes, not gated when 0.
		bytes uint64
		solve solveFunc
	}{
		{"bottleneck", 10000, 4, false, 9, 0, byBound(core.Bottleneck)},
		{"bottleneck/frozen", 10000, 4, true, 4, 180_000, byBound(core.Bottleneck)},
		{"minproc", 10000, 5, false, 30, 0, byBound(core.MinProcessors)},
		{"partition-tree", 10000, 6, false, 8, 0, byBound(core.PartitionTree)},
		{"partition-tree/frozen", 10000, 6, true, 6, 155_000, byBound(core.PartitionTree)},
		{"summax-tree", 1000, 7, false, 18, 0, byParts(core.SumOfMaxTree, 10)},
		{"maxmin-tree", 10000, 8, false, 21, 0, byParts(core.MaxMinTree, 16)},
	} {
		tr := benchTree(c.seed, c.n)
		if c.frozen {
			tr = benchFrozenTree(c.seed, c.n)
		}
		solve := func() {
			if _, _, err := c.solve(tr); err != nil {
				t.Fatal(err)
			}
		}
		avg, bytes := testing.AllocsPerRun(20, solve), bytesPerRun(20, solve)
		t.Logf("%s: %.1f allocs/op, budget %.0f; %d B/op, budget %d", c.name, avg, c.budget, bytes, c.bytes)
		if avg > c.budget {
			t.Errorf("%s on a %d-node tree allocates %.1f/op, budget %.0f", c.name, c.n, avg, c.budget)
		}
		if c.bytes != 0 && bytes > c.bytes {
			t.Errorf("%s on a %d-node tree allocates %d B/op, budget %d", c.name, c.n, bytes, c.bytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean number of heap
// bytes one call of f allocates, after a warm-up call, with one P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestPathSolverAllocBudget gates the allocations of the paper's bandwidth
// solver on the n=10⁴ path BenchmarkBandwidthTempS uses, in count and in
// bytes. Prime extraction and the TEMP_S sweep run in pooled scratch sized
// once per high-water mark, so a warm prime.FindInto, and a warm
// prime.Scratch.Analyze, allocate nothing. A solve allocates its answer
// (the partition, the sweep's points, which are the cut, and the
// component weights); its span attributes box their values only when the
// solve is traced.
func TestPathSolverAllocBudget(t *testing.T) {
	const n, budget, byteBudget = 10000, 3, 28 << 10
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	p := benchPath(2, n)
	k := 4 * p.MaxNodeWeight()
	solve := func() {
		if _, _, err := core.Bandwidth(context.Background(), p, k); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(20, solve)
	t.Logf("bandwidth: %.1f allocs/op, budget %d", avg, budget)
	if avg > budget {
		t.Errorf("Bandwidth on a %d-node path allocates %.1f/op, budget %d", n, avg, budget)
	}
	bytes := bytesPerRun(20, solve)
	t.Logf("bandwidth: %d B/op, budget %d", bytes, byteBudget)
	if bytes > byteBudget {
		t.Errorf("Bandwidth on a %d-node path allocates %d B/op, budget %d", n, bytes, byteBudget)
	}
	var a, b []int
	if avg := testing.AllocsPerRun(20, func() {
		var err error
		if a, b, err = prime.FindInto(a, b, p.NodeW, k); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm prime.FindInto allocates %.1f/op, want 0", avg)
	}
	var sc prime.Scratch
	if avg := testing.AllocsPerRun(20, func() {
		if _, _, err := sc.Analyze(p.NodeW, p.EdgeW, k); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm prime.Scratch.Analyze allocates %.1f/op, want 0", avg)
	}
}

func benchChain(seed uint64, n int) []int64 {
	r := workload.NewRNG(seed)
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + r.Intn(100))
	}
	return w
}

func BenchmarkCCPProbe(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		w := benchChain(7, n)
		b.Run(fmt.Sprintf("n=%d/m=16", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ccp.SolveProbe(w, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCCPDPBinary(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		w := benchChain(7, n)
		b.Run(fmt.Sprintf("n=%d/m=16", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ccp.SolveDPBinary(w, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCCPDPQuadratic(b *testing.B) {
	w := benchChain(7, 1000)
	b.Run("n=1000/m=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ccp.SolveDPQuadratic(w, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTreeBandwidthExact(b *testing.B) {
	r := workload.NewRNG(8)
	for _, n := range []int{50, 200} {
		tr := workload.RandomTree(r, n, workload.UniformWeights(1, 8), workload.UniformWeights(1, 100))
		for v := range tr.NodeW {
			tr.NodeW[v] = float64(1 + int(tr.NodeW[v])%8)
		}
		b.Run(fmt.Sprintf("n=%d/K=40", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := treecut.TreeBandwidthExact(context.Background(), tr, 40); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeBandwidthGreedy runs the heuristic on a 5k-node tree at
// K = 30 × max task, where its redundancy pass retries hundreds of cut edges.
func BenchmarkTreeBandwidthGreedy(b *testing.B) {
	r := workload.NewRNG(7)
	tr := workload.RandomTree(r, 5000, workload.UniformWeights(1, 100), workload.UniformWeights(1, 50))
	k := 30 * tr.MaxNodeWeight()
	b.Run("n=5000/K=30x", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := treecut.TreeBandwidthGreedy(context.Background(), tr, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSumBottleneck(b *testing.B) {
	r := workload.NewRNG(13)
	for _, n := range []int{1000, 10000} {
		w := make([]int64, n)
		e := make([]int64, n-1)
		for i := range w {
			w[i] = int64(1 + r.Intn(100))
		}
		for i := range e {
			e[i] = int64(r.Intn(80))
		}
		b.Run(fmt.Sprintf("Probe/n=%d/m=16", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sumbottleneck.SolveProbe(w, e, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
		if n <= 1000 {
			b.Run(fmt.Sprintf("DP/n=%d/m=16", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sumbottleneck.SolveDP(w, e, 16); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkHostSatellite(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		tr := benchTree(12, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hostsat.Solve(tr, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLogicsimProfile(b *testing.B) {
	ad, err := logicsim.RippleCarryAdder(32)
	if err != nil {
		b.Fatal(err)
	}
	r := workload.NewRNG(9)
	stim := func(cycle, inputIdx int) bool { return r.Float64() < 0.5 }
	b.Run("adder32/100cycles", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := logicsim.Run(ad.Circuit, 100, stim); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSchedSimulate(b *testing.B) {
	p := benchPath(10, 512)
	k := 8 * p.MaxNodeWeight()
	pp, err := repro.Bandwidth(p, k)
	if err != nil {
		b.Fatal(err)
	}
	m := &arch.Machine{Processors: 512, Speed: 100, BusBandwidth: 50}
	cfg := sched.Config{Machine: m, Rounds: 10}
	b.Run("path512/rounds10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sched.SimulatePath(cfg, p, pp.Cut); err != nil {
				b.Fatal(err)
			}
		}
	})
}
