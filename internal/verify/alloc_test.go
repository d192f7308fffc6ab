package verify

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/workload"
)

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// certCase is one tree certificate on the answer of the solver it checks,
// with its allocation budgets on an unfrozen and on a frozen tree.
type certCase struct {
	name           string
	budget, frozen allocBudget
	solve          func() (*core.TreePartition, int64, error)
	certify        func(tr *graph.Tree, cut []int) (*Certificate, error)
}

// allocBudget bounds a certificate's allocations per call, in count and,
// when bytes is not 0, in bytes.
type allocBudget struct {
	allocs float64
	bytes  uint64
}

// TestTreeCertificateAllocBudget gates the allocations of the three tree
// certificates on a 5k-node tree, over the bounds and part counts
// BenchmarkCertifyTree uses: K = 3/10/30 × max task for the bound
// criteria, 2/16/64 parts for max–min. The oracles walk one CSR buffer, so
// a certificate allocates O(1) columns, not a slice per vertex. Each
// certificate also runs on a frozen copy of the tree, the one the daemon
// serves, where the oracles share its rooted view and the components are
// labelled from it: those rows gate bytes as well.
func TestTreeCertificateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without the race detector")
	}
	ctx := context.Background()
	tr := workload.RandomTree(workload.NewRNG(7), 5000,
		workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	frozen := tr.Clone()
	frozen.Freeze()
	frozen.Root0(nil)
	var cases []certCase
	for _, f := range []float64{3, 10, 30} {
		k := f * tr.MaxNodeWeight()
		cases = append(cases, certCase{
			name: fmt.Sprintf("minprocs/K=%vx", f), budget: allocBudget{allocs: 32},
			frozen:  allocBudget{allocs: 11, bytes: 100_000},
			solve:   func() (*core.TreePartition, int64, error) { return core.MinProcessors(ctx, tr, k) },
			certify: func(tr *graph.Tree, cut []int) (*Certificate, error) { return CertifyProcMin(tr, k, cut) },
		}, certCase{
			name: fmt.Sprintf("bottleneck/K=%vx", f), budget: allocBudget{allocs: 16},
			frozen:  allocBudget{allocs: 8, bytes: 180_000},
			solve:   func() (*core.TreePartition, int64, error) { return core.Bottleneck(ctx, tr, k) },
			certify: func(tr *graph.Tree, cut []int) (*Certificate, error) { return CertifyBottleneck(tr, k, cut) },
		})
	}
	for _, parts := range []int{2, 16, 64} {
		cases = append(cases, certCase{
			name: fmt.Sprintf("maxmin/parts=%d", parts), budget: allocBudget{allocs: 16},
			frozen:  allocBudget{allocs: 5, bytes: 64_000},
			solve:   func() (*core.TreePartition, int64, error) { return core.MaxMinTree(ctx, tr, parts) },
			certify: func(tr *graph.Tree, cut []int) (*Certificate, error) { return CertifyMaxMin(tr, parts, cut) },
		})
	}
	for _, c := range cases {
		tp, _, err := c.solve()
		if err != nil {
			t.Fatalf("%s: solve: %v", c.name, err)
		}
		for _, g := range []struct {
			name string
			tr   *graph.Tree
			b    allocBudget
		}{{c.name, tr, c.budget}, {c.name + "/frozen", frozen, c.frozen}} {
			certify := func() {
				if cert, err := c.certify(g.tr, tp.Cut); err != nil || !cert.Certified {
					t.Fatalf("%s: certificate %+v, %v", g.name, cert, err)
				}
			}
			avg, bytes := testing.AllocsPerRun(10, certify), bytesPerRun(10, certify)
			t.Logf("%s: %.1f allocs/op, budget %.0f; %d B/op, budget %d", g.name, avg, g.b.allocs, bytes, g.b.bytes)
			if avg > g.b.allocs {
				t.Errorf("%s on a %d-node tree allocates %.1f/op, budget %.0f", g.name, tr.Len(), avg, g.b.allocs)
			}
			if g.b.bytes != 0 && bytes > g.b.bytes {
				t.Errorf("%s on a %d-node tree allocates %d B/op, budget %d", g.name, tr.Len(), bytes, g.b.bytes)
			}
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
