package sched

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/workload"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/pin.txt from the simulators' current output")

// TestSimulatorsPinned runs SimulatePath, SimulateTree and
// SimulatePipelineStream over seeded random paths, trees, cuts, link counts
// and round counts, and compares every result field (as float64 bits) and
// every error message against testdata/pin.txt. Half the seeds use small
// integer weights, including zeros, so that events tie in time and the
// order in which the simulators post events decides the outcome; a quarter
// of the seeds break one input, or several, to pin the order of the checks.
func TestSimulatorsPinned(t *testing.T) {
	var b strings.Builder
	for seed := uint64(0); seed < 400; seed++ {
		pinCase(&b, seed)
	}
	got := b.String()
	path := filepath.Join("testdata", "pin.txt")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}

func pinCase(b *strings.Builder, seed uint64) {
	r := workload.NewRNG(seed)
	n := 1 + r.Intn(12)
	var nodeW, edgeW workload.Weights
	ints := seed%2 == 0
	if ints {
		nodeW, edgeW = workload.UniformWeights(0, 4), workload.UniformWeights(0, 3)
	} else {
		nodeW, edgeW = workload.UniformWeights(0.5, 20), workload.UniformWeights(0.1, 10)
	}
	p := workload.RandomPath(r, n, nodeW, edgeW)
	tr := workload.RandomTree(r, n, nodeW, edgeW)
	if ints {
		for i := range p.NodeW {
			p.NodeW[i] = math.Floor(p.NodeW[i])
		}
		for i := range p.EdgeW {
			p.EdgeW[i] = math.Floor(p.EdgeW[i])
		}
		for i := range tr.NodeW {
			tr.NodeW[i] = math.Floor(tr.NodeW[i])
		}
		for i := range tr.Edges {
			tr.Edges[i].W = math.Floor(tr.Edges[i].W)
		}
	}
	pathCut := randomCut(r, n-1)
	treeCut := randomCut(r, n-1)
	m := &arch.Machine{Processors: n, Speed: 1, BusBandwidth: 1}
	if !ints {
		m.Speed, m.BusBandwidth = r.Uniform(0.5, 4), r.Uniform(0.5, 4)
	}
	cfg := Config{Machine: m, Rounds: 1 + r.Intn(4), Links: r.Intn(4)}
	items := 1 + r.Intn(6)
	// One seed in four breaks something; each bit of `bad` is set with
	// probability 1/4 and picks one fault, so several checks can fail at once.
	if r.Intn(4) == 0 {
		bad := 0
		for bad == 0 {
			for i := range 7 {
				if r.Intn(4) == 0 {
					bad |= 1 << i
				}
			}
		}
		if bad&1 != 0 {
			cfg.Machine = nil
		}
		if bad&2 != 0 {
			m.Speed = 0
		}
		if bad&4 != 0 {
			cfg.Rounds = -r.Intn(2)
		}
		if bad&8 != 0 {
			cfg.Links = -1 - r.Intn(2)
		}
		if bad&16 != 0 {
			items = -r.Intn(2)
		}
		if bad&32 != 0 {
			m.Processors = max(1, min(len(pathCut), len(treeCut)))
		}
		if bad&64 != 0 {
			p = &graph.Path{NodeW: p.NodeW, EdgeW: append(p.EdgeW, 1)}
			pathCut = append(pathCut, n+1)
			treeCut = append(treeCut, n+1)
		}
	}
	fmt.Fprintf(b, "seed %d n=%d rounds=%d links=%d items=%d pathCut=%v treeCut=%v\n",
		seed, n, cfg.Rounds, cfg.Links, items, pathCut, treeCut)
	res, err := SimulatePath(cfg, p, pathCut)
	pinResult(b, "path", res, err)
	res, err = SimulateTree(cfg, tr, treeCut)
	pinResult(b, "tree", res, err)
	sres, err := SimulatePipelineStream(cfg, p, pathCut, items)
	if err != nil {
		fmt.Fprintf(b, "  stream err %s\n", err)
		return
	}
	fmt.Fprintf(b, "  stream makespan=%s first=%s throughput=%s busy=%s messages=%d\n",
		bits(sres.Makespan), bits(sres.FirstItemLatency), bits(sres.Throughput),
		bits(sres.BusBusy), sres.Messages)
}

// randomCut picks each of m edges with probability 1/2, in increasing order.
func randomCut(r *workload.RNG, m int) []int {
	cut := []int{}
	for e := 0; e < m; e++ {
		if r.Intn(2) == 0 {
			cut = append(cut, e)
		}
	}
	return cut
}

func pinResult(b *strings.Builder, name string, res *Result, err error) {
	if err != nil {
		fmt.Fprintf(b, "  %s err %s\n", name, err)
		return
	}
	fmt.Fprintf(b, "  %s makespan=%s busy=%s util=%s messages=%d latency=%s compute=%s\n",
		name, bits(res.Makespan), bits(res.BusBusy), bits(res.BusUtilization),
		res.Messages, bits(res.MeanMessageLatency), bits(res.ComputeTime))
}

func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
