package verify

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// certCase is one tree certificate on the answer of the solver it checks.
type certCase struct {
	name    string
	budget  float64
	solve   func() (*core.TreePartition, int64, error)
	certify func(cut []int) (*Certificate, error)
}

// TestTreeCertificateAllocBudget gates the allocations of the three tree
// certificates on a 5k-node tree, over the bounds and part counts
// BenchmarkCertifyTree uses: K = 3/10/30 × max task for the bound
// criteria, 2/16/64 parts for max–min. The oracles walk one CSR buffer, so
// a certificate allocates O(1) columns, not a slice per vertex.
func TestTreeCertificateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are gated without the race detector")
	}
	ctx := context.Background()
	tr := workload.RandomTree(workload.NewRNG(7), 5000,
		workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
	var cases []certCase
	for _, f := range []float64{3, 10, 30} {
		k := f * tr.MaxNodeWeight()
		cases = append(cases, certCase{
			name: fmt.Sprintf("minprocs/K=%vx", f), budget: 32,
			solve:   func() (*core.TreePartition, int64, error) { return core.MinProcessors(ctx, tr, k) },
			certify: func(cut []int) (*Certificate, error) { return CertifyProcMin(tr, k, cut) },
		}, certCase{
			name: fmt.Sprintf("bottleneck/K=%vx", f), budget: 16,
			solve:   func() (*core.TreePartition, int64, error) { return core.Bottleneck(ctx, tr, k) },
			certify: func(cut []int) (*Certificate, error) { return CertifyBottleneck(tr, k, cut) },
		})
	}
	for _, parts := range []int{2, 16, 64} {
		cases = append(cases, certCase{
			name: fmt.Sprintf("maxmin/parts=%d", parts), budget: 16,
			solve:   func() (*core.TreePartition, int64, error) { return core.MaxMinTree(ctx, tr, parts) },
			certify: func(cut []int) (*Certificate, error) { return CertifyMaxMin(tr, parts, cut) },
		})
	}
	for _, c := range cases {
		tp, _, err := c.solve()
		if err != nil {
			t.Fatalf("%s: solve: %v", c.name, err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if cert, err := c.certify(tp.Cut); err != nil || !cert.Certified {
				t.Fatalf("%s: certificate %+v, %v", c.name, cert, err)
			}
		})
		t.Logf("%s: %.1f allocs/op, budget %.0f", c.name, avg, c.budget)
		if avg > c.budget {
			t.Errorf("%s on a %d-node tree allocates %.1f/op, budget %.0f", c.name, tr.Len(), avg, c.budget)
		}
	}
}
