package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/ccp"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file regenerates the related-work comparison (DESIGN.md TAB-CMP):
// wall-clock scaling of the paper's bandwidth algorithm against the
// O(n log n) heap baseline, the O(n) deque ablation and the naive DP, plus
// the chains-on-chains prior-work ladder.

// ComplexityConfig parameterizes the bandwidth solver timing sweep.
type ComplexityConfig struct {
	Seed   uint64
	N      []int
	KRatio float64
	Trials int
	// NaiveMaxN is the largest n at which the O(n·window) DP runs; above
	// it the DP would dominate the run time and is left out.
	NaiveMaxN int
}

// DefaultComplexityConfig covers 1e3..1e6 tasks.
func DefaultComplexityConfig() ComplexityConfig {
	return ComplexityConfig{
		Seed:      7,
		N:         []int{1000, 10000, 100000, 1000000},
		KRatio:    4,
		Trials:    3,
		NaiveMaxN: 100000,
	}
}

// ComplexityRow is one timing point (mean nanoseconds per solve).
type ComplexityRow struct {
	N                                 int
	TempSNs, DequeNs, HeapNs, NaiveNs float64
	CutWeight                         float64
}

// RunComplexity times the four bandwidth implementations on identical
// instances through the solver engine and asserts they agree. The reported
// times are the engine's per-solve Stats.Duration.
func RunComplexity(cfg ComplexityConfig) ([]ComplexityRow, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	ctx := context.Background()
	rng := workload.NewRNG(cfg.Seed)
	var rows []ComplexityRow
	for _, n := range cfg.N {
		row := ComplexityRow{N: n, NaiveNs: -1}
		naive := n <= cfg.NaiveMaxN
		if naive {
			row.NaiveNs = 0
		}
		for trial := 0; trial < cfg.Trials; trial++ {
			p := workload.RandomPath(rng, n,
				workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
			k := cfg.KRatio * p.MaxNodeWeight()
			type run struct {
				solver string
				ns     *float64
			}
			runs := []run{
				{"bandwidth", &row.TempSNs},
				{"bandwidth-deque", &row.DequeNs},
				{"bandwidth-heap", &row.HeapNs},
			}
			if naive {
				runs = append(runs, run{"bandwidth-naive", &row.NaiveNs})
			}
			var ref float64
			for i, r := range runs {
				res, err := engine.Solve(ctx, engine.Request{Solver: r.solver, Path: p, K: k})
				if err != nil {
					return nil, fmt.Errorf("n=%d trial=%d solver=%s: %w", n, trial, r.solver, err)
				}
				*r.ns += float64(res.Stats.Duration.Nanoseconds())
				if i == 0 {
					ref = res.CutWeight
					row.CutWeight += res.CutWeight
				} else if diff := res.CutWeight - ref; diff > 1e-6 || diff < -1e-6 {
					return nil, fmt.Errorf("n=%d: solver %s weight %v != TempS %v", n, r.solver, res.CutWeight, ref)
				}
			}
		}
		inv := 1 / float64(cfg.Trials)
		row.TempSNs *= inv
		row.DequeNs *= inv
		row.HeapNs *= inv
		if naive {
			row.NaiveNs *= inv
		}
		row.CutWeight *= inv
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderComplexity writes the bandwidth timing table.
func RenderComplexity(w io.Writer, rows []ComplexityRow) error {
	t := stats.NewTable("n", "TempS(ms)", "Deque(ms)", "Heap(ms)", "NaiveDP(ms)", "Heap/TempS")
	for _, r := range rows {
		naive := "-"
		if r.NaiveNs >= 0 {
			naive = fmt.Sprintf("%.3f", r.NaiveNs/1e6)
		}
		speedup := 0.0
		if r.TempSNs > 0 {
			speedup = r.HeapNs / r.TempSNs
		}
		t.AddRow(r.N, r.TempSNs/1e6, r.DequeNs/1e6, r.HeapNs/1e6, naive, speedup)
	}
	return t.Render(w)
}

// CCPConfig parameterizes the chains-on-chains prior-work ladder.
type CCPConfig struct {
	Seed   uint64
	Points []CCPPoint
	Trials int
}

// CCPPoint is one (n, m) grid point.
type CCPPoint struct{ N, M int }

// DefaultCCPConfig covers the sizes the 1988-1992 papers report.
func DefaultCCPConfig() CCPConfig {
	return CCPConfig{
		Seed: 11,
		Points: []CCPPoint{
			{1000, 8}, {1000, 64}, {10000, 8}, {10000, 64}, {100000, 16},
		},
		Trials: 3,
	}
}

// CCPRow is one timing point for the CCP solver ladder.
type CCPRow struct {
	N, M                       int
	ProbeNs, DPBinNs, DPQuadNs float64
	Bottleneck                 float64
	GreedyExcess               float64 // greedy bottleneck / optimal − 1
}

// RunCCP times the chains-on-chains solvers. The quadratic DP is skipped
// above 10k tasks where it would dominate the run.
func RunCCP(cfg CCPConfig) ([]CCPRow, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	rng := workload.NewRNG(cfg.Seed)
	var rows []CCPRow
	for _, pt := range cfg.Points {
		row := CCPRow{N: pt.N, M: pt.M, DPQuadNs: -1}
		quad := pt.N <= 10000
		if quad {
			row.DPQuadNs = 0
		}
		for trial := 0; trial < cfg.Trials; trial++ {
			w := make([]int64, pt.N)
			for i := range w {
				w[i] = int64(1 + rng.Intn(100))
			}
			start := time.Now()
			probe, err := ccp.SolveProbe(w, pt.M)
			row.ProbeNs += float64(time.Since(start).Nanoseconds())
			if err != nil {
				return nil, err
			}
			start = time.Now()
			dpb, err := ccp.SolveDPBinary(w, pt.M)
			row.DPBinNs += float64(time.Since(start).Nanoseconds())
			if err != nil {
				return nil, err
			}
			if dpb.Bottleneck != probe.Bottleneck {
				return nil, fmt.Errorf("n=%d m=%d: dp %d != probe %d", pt.N, pt.M, dpb.Bottleneck, probe.Bottleneck)
			}
			if quad {
				start = time.Now()
				dpq, err := ccp.SolveDPQuadratic(w, pt.M)
				row.DPQuadNs += float64(time.Since(start).Nanoseconds())
				if err != nil {
					return nil, err
				}
				if dpq.Bottleneck != probe.Bottleneck {
					return nil, fmt.Errorf("n=%d m=%d: quad %d != probe %d", pt.N, pt.M, dpq.Bottleneck, probe.Bottleneck)
				}
			}
			greedy, err := ccp.GreedyAverage(w, pt.M)
			if err != nil {
				return nil, err
			}
			row.Bottleneck += float64(probe.Bottleneck)
			row.GreedyExcess += float64(greedy.Bottleneck)/float64(probe.Bottleneck) - 1
		}
		inv := 1 / float64(cfg.Trials)
		row.ProbeNs *= inv
		row.DPBinNs *= inv
		if quad {
			row.DPQuadNs *= inv
		}
		row.Bottleneck *= inv
		row.GreedyExcess *= inv
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderCCP writes the CCP ladder table.
func RenderCCP(w io.Writer, rows []CCPRow) error {
	t := stats.NewTable("n", "m", "Probe(ms)", "DPBinary(ms)", "DPQuad(ms)", "bottleneck", "greedy excess")
	for _, r := range rows {
		quad := "-"
		if r.DPQuadNs >= 0 {
			quad = fmt.Sprintf("%.3f", r.DPQuadNs/1e6)
		}
		t.AddRow(r.N, r.M, r.ProbeNs/1e6, r.DPBinNs/1e6, quad, r.Bottleneck, fmt.Sprintf("%.2f%%", 100*r.GreedyExcess))
	}
	return t.Render(w)
}
