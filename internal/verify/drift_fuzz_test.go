package verify

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/verify/oracle"
	"repro/internal/workload"
)

// FuzzMinProcsDrift solves processor minimization on small float trees (up
// to 13 vertices, weights in [0, 1)) at a bound K equal to one node weight or
// the sum of two, raised to the largest task. Such a K is often the exact
// weight of a component the optimum needs, so a load that drifts from its
// exact sum by one rounding step flips a prune decision. K is never below
// the largest task, so the solve must succeed; its component count must
// equal both the independent greedy's (oracle.MinComponentsTree) and the
// exhaustive minimum (oracle.TreeBrute), and CertifyProcMin must certify it.
// The seeds failed when a pruned vertex's load was computed by subtracting
// its pruned children from the total: the first four with a spurious
// ErrInfeasible, the last three with one component too many, which the
// oracle's greedy repeated and the certificate accepted.
func FuzzMinProcsDrift(f *testing.F) {
	f.Add(uint64(28), uint8(36), uint8(249), uint8(246), false)
	f.Add(uint64(38), uint8(199), uint8(226), uint8(180), true)
	f.Add(uint64(42), uint8(125), uint8(166), uint8(111), false)
	f.Add(uint64(78), uint8(11), uint8(154), uint8(132), true)
	f.Add(uint64(104), uint8(227), uint8(134), uint8(77), true)
	f.Add(uint64(174), uint8(119), uint8(166), uint8(90), true)
	f.Add(uint64(246), uint8(62), uint8(185), uint8(188), true)
	f.Fuzz(func(t *testing.T, seed uint64, size, i, j uint8, two bool) {
		r := workload.NewRNG(seed)
		n := 1 + int(size)%13
		w := workload.UniformWeights(0, 1)
		tr := workload.RandomTree(r, n, w, w)
		k := tr.NodeW[int(i)%n]
		if two {
			k += tr.NodeW[int(j)%n]
		}
		k = max(k, tr.MaxNodeWeight())
		if !(k > 0) {
			return
		}
		mp, _, err := core.MinProcessors(context.Background(), tr, k)
		if err != nil {
			t.Fatalf("n=%d K=%v: MinProcessors: %v\nnodeW=%v edges=%v", n, k, err, tr.NodeW, tr.Edges)
		}
		got := mp.NumComponents()
		ref, _, err := oracle.MinComponentsTree(tr, k)
		if err != nil {
			t.Fatalf("n=%d K=%v: MinComponentsTree: %v", n, k, err)
		}
		brute, err := oracle.TreeBrute(tr, k)
		if err != nil {
			t.Fatalf("n=%d K=%v: TreeBrute: %v", n, k, err)
		}
		if got != ref || got != brute.Components {
			t.Fatalf("n=%d K=%v: MinProcessors %d components, MinComponentsTree %d, TreeBrute %d\nnodeW=%v edges=%v cut=%v",
				n, k, got, ref, brute.Components, tr.NodeW, tr.Edges, mp.Cut)
		}
		if cert, err := CertifyProcMin(tr, k, mp.Cut); err != nil || !cert.Certified {
			t.Fatalf("n=%d K=%v cut=%v: CertifyProcMin = %+v, %v", n, k, mp.Cut, cert, err)
		}
	})
}
