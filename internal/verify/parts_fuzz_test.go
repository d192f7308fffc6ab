package verify

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/verify/oracle"
	"repro/internal/workload"
)

// FuzzPartsTreeAgreement runs both part-count tree solvers at every part
// count of a fuzzed tree: random, star or path shaped, up to 40 vertices,
// with float weights or integer weights 0–3 whose many ties in the running
// maximum exercise the Pareto merges' equal-m paths. The sum-of-max value
// must equal the independent oracle DP, both answers must certify, and up to
// 14 vertices both values must equal the exhaustive oracles.
func FuzzPartsTreeAgreement(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(0), false)
	f.Add(uint64(2), uint8(14), uint8(1), true)
	f.Add(uint64(3), uint8(39), uint8(2), true)
	f.Add(uint64(4), uint8(30), uint8(0), true)
	f.Add(uint64(5), uint8(40), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed uint64, size, shape uint8, intWeights bool) {
		ctx := context.Background()
		r := workload.NewRNG(seed)
		n := 1 + int(size)%40
		w := workload.UniformWeights(0, 100)
		var tr *graph.Tree
		switch shape % 3 {
		case 0:
			tr = workload.RandomTree(r, n, w, w)
		case 1:
			tr = workload.Star(r, n, w, w)
		default:
			tr = workload.RandomPath(r, n, w, w).AsTree()
		}
		if intWeights {
			for i := range tr.NodeW {
				tr.NodeW[i] = float64(r.Intn(4))
			}
		}
		for parts := 1; parts <= n; parts++ {
			sm, _, err := core.SumOfMaxTree(ctx, tr, parts)
			if err != nil {
				t.Fatalf("n=%d parts=%d: SumOfMaxTree: %v", n, parts, err)
			}
			smv := sumOfMaxValue(t, tr, sm.Cut)
			dp, err := oracle.SumOfMaxDP(tr, parts)
			if err != nil {
				t.Fatalf("n=%d parts=%d: SumOfMaxDP: %v", n, parts, err)
			}
			if !feq(smv, dp) {
				t.Fatalf("n=%d parts=%d: sum of maxes %v, oracle DP %v\nnodeW=%v edges=%v cut=%v",
					n, parts, smv, dp, tr.NodeW, tr.Edges, sm.Cut)
			}
			if cert, err := CertifySumOfMax(tr, parts, sm.Cut); err != nil || !cert.Certified {
				t.Fatalf("n=%d parts=%d cut=%v: CertifySumOfMax = %+v, %v", n, parts, sm.Cut, cert, err)
			}
			mm, _, err := core.MaxMinTree(ctx, tr, parts)
			if err != nil {
				t.Fatalf("n=%d parts=%d: MaxMinTree: %v", n, parts, err)
			}
			mmv := math.Inf(1)
			for _, cw := range mm.ComponentWeights {
				mmv = math.Min(mmv, cw)
			}
			if cert, err := CertifyMaxMin(tr, parts, mm.Cut); err != nil || !cert.Certified {
				t.Fatalf("n=%d parts=%d cut=%v: CertifyMaxMin = %+v, %v\nnodeW=%v edges=%v",
					n, parts, mm.Cut, cert, err, tr.NodeW, tr.Edges)
			}
			if n > 14 {
				continue
			}
			if bm, err := oracle.SumOfMaxBrute(tr, parts); err != nil {
				t.Fatalf("SumOfMaxBrute: %v", err)
			} else if !feq(smv, bm.Value) {
				t.Fatalf("n=%d parts=%d: sum of maxes %v, brute %v", n, parts, smv, bm.Value)
			}
			if bm, err := oracle.MaxMinBrute(tr, parts); err != nil {
				t.Fatalf("MaxMinBrute: %v", err)
			} else if !feq(mmv, bm.Value) {
				t.Fatalf("n=%d parts=%d: max–min %v, brute %v", n, parts, mmv, bm.Value)
			}
		}
	})
}
