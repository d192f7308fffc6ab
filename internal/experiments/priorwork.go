package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hostsat"
	"repro/internal/stats"
	"repro/internal/sumbottleneck"
	"repro/internal/workload"
)

// pathFromSlices wraps already-validated weight slices without copying.
func pathFromSlices(nodeW, edgeW []float64) *graph.Path {
	return &graph.Path{NodeW: nodeW, EdgeW: edgeW}
}

// bandwidthForContrast returns the shared-memory optimal cut weight at bound
// k for the same chain.
func bandwidthForContrast(p *graph.Path, k float64) (float64, error) {
	pp, _, err := core.Bandwidth(context.Background(), p, k)
	if err != nil {
		return 0, err
	}
	return pp.CutWeight, nil
}

// This file regenerates the remaining prior-work comparisons of §1: the
// sum-bottleneck linear-array model (Bokhari 1988; blocks pay their boundary
// communication, unlike the shared-memory model where bandwidth
// minimization pools it on the common network) and the single-host /
// multi-satellite tree case the paper notes is polynomial.

// PriorWorkRow is one sum-bottleneck measurement.
type PriorWorkRow struct {
	N, M          int
	ProbeNs, DPNs float64
	Bottleneck    float64
	// SharedMemCut is the total cut weight the shared-memory bandwidth
	// model would pay for the same chain at K = Σw/m + wmax, for contrast
	// with the linear-array bottleneck.
	SharedMemCut float64
}

// RunSumBottleneck times the sum-bottleneck solvers and contrasts the two
// cost models on the same chains.
func RunSumBottleneck(seed uint64, points []CCPPoint, trials int) ([]PriorWorkRow, error) {
	if trials <= 0 {
		trials = 1
	}
	rng := workload.NewRNG(seed)
	var rows []PriorWorkRow
	for _, pt := range points {
		row := PriorWorkRow{N: pt.N, M: pt.M, DPNs: -1}
		dp := pt.N <= 2000
		if dp {
			row.DPNs = 0
		}
		for trial := 0; trial < trials; trial++ {
			w := make([]int64, pt.N)
			e := make([]int64, pt.N-1)
			nodeW := make([]float64, pt.N)
			edgeW := make([]float64, pt.N-1)
			for i := range w {
				w[i] = int64(1 + rng.Intn(100))
				nodeW[i] = float64(w[i])
			}
			for i := range e {
				e[i] = int64(1 + rng.Intn(80))
				edgeW[i] = float64(e[i])
			}
			start := time.Now()
			probe, err := sumbottleneck.SolveProbe(w, e, pt.M)
			row.ProbeNs += float64(time.Since(start).Nanoseconds())
			if err != nil {
				return nil, err
			}
			if dp {
				start = time.Now()
				res, err := sumbottleneck.SolveDP(w, e, pt.M)
				row.DPNs += float64(time.Since(start).Nanoseconds())
				if err != nil {
					return nil, err
				}
				if res.Bottleneck != probe.Bottleneck {
					return nil, fmt.Errorf("n=%d m=%d: dp %d != probe %d", pt.N, pt.M, res.Bottleneck, probe.Bottleneck)
				}
			}
			row.Bottleneck += float64(probe.Bottleneck)
			// Shared-memory contrast at a comparable load bound.
			var total, maxW float64
			for _, x := range nodeW {
				total += x
				if x > maxW {
					maxW = x
				}
			}
			p := pathFromSlices(nodeW, edgeW)
			pp, err := bandwidthForContrast(p, total/float64(pt.M)+maxW)
			if err != nil {
				return nil, err
			}
			row.SharedMemCut += pp
		}
		inv := 1 / float64(trials)
		row.ProbeNs *= inv
		if dp {
			row.DPNs *= inv
		}
		row.Bottleneck *= inv
		row.SharedMemCut *= inv
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderSumBottleneck writes the prior-work table.
func RenderSumBottleneck(w io.Writer, rows []PriorWorkRow) error {
	t := stats.NewTable("n", "m", "Probe(ms)", "DP(ms)", "linear-array bottleneck", "shared-mem cut weight")
	for _, r := range rows {
		dp := "-"
		if r.DPNs >= 0 {
			dp = fmt.Sprintf("%.3f", r.DPNs/1e6)
		}
		t.AddRow(r.N, r.M, r.ProbeNs/1e6, dp, r.Bottleneck, r.SharedMemCut)
	}
	return t.Render(w)
}

// HostSatRow is one host-satellite measurement.
type HostSatRow struct {
	N          int
	SolveNs    float64
	Bottleneck float64
	Satellites float64
	// LimitedBottleneck is the optimum with at most 4 satellites.
	LimitedBottleneck float64
}

// RunHostSat times the host-satellite solver on random trees.
func RunHostSat(seed uint64, sizes []int, trials int) ([]HostSatRow, error) {
	if trials <= 0 {
		trials = 1
	}
	rng := workload.NewRNG(seed)
	var rows []HostSatRow
	for _, n := range sizes {
		row := HostSatRow{N: n}
		for trial := 0; trial < trials; trial++ {
			tr := workload.RandomTree(rng, n,
				workload.UniformWeights(1, 100), workload.UniformWeights(0, 50))
			start := time.Now()
			p, err := hostsat.Solve(tr, 0)
			row.SolveNs += float64(time.Since(start).Nanoseconds())
			if err != nil {
				return nil, err
			}
			row.Bottleneck += p.Bottleneck
			row.Satellites += float64(len(p.OffloadRoots))
			if n <= 2000 {
				lp, err := hostsat.SolveLimited(tr, 0, 4)
				if err != nil {
					return nil, err
				}
				row.LimitedBottleneck += lp.Bottleneck
			}
		}
		inv := 1 / float64(trials)
		row.SolveNs *= inv
		row.Bottleneck *= inv
		row.Satellites *= inv
		row.LimitedBottleneck *= inv
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderHostSat writes the host-satellite table.
func RenderHostSat(w io.Writer, rows []HostSatRow) error {
	t := stats.NewTable("n", "Solve(ms)", "bottleneck", "satellites", "bottleneck(m=4)")
	for _, r := range rows {
		lim := "-"
		if r.LimitedBottleneck > 0 {
			lim = fmt.Sprintf("%.1f", r.LimitedBottleneck)
		}
		t.AddRow(r.N, r.SolveNs/1e6, r.Bottleneck, r.Satellites, lim)
	}
	return t.Render(w)
}
