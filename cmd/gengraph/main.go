// Command gengraph emits random task graphs, for feeding cmd/partition and
// for building ad-hoc experiments.
//
// Usage:
//
//	gengraph -kind path   -n 1000 [-seed 7] [-dist uniform] [-wlo 1 -whi 100] [-elo 1 -ehi 100]
//	gengraph -kind tree   -n 1000
//	gengraph -kind star   -n 64
//	gengraph -kind dary   -n 1000 -d 3
//	gengraph -kind caterpillar -n 0 -spine 20 -leaves 4
//	gengraph -kind pde    -rows 64 -cols 1024
//	gengraph -kind path -n 100000 -format bin > big.pgb
//
// -format selects the output encoding: "text" (default) is the line-oriented
// codec of internal/graph, "json" is the envelope partitiond's /v1/solve
// accepts, and "bin" is the PGB1 binary frame (internal/codec) that both
// cmd/partition and partitiond's binary wire format consume.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
}

func run() error {
	kind := flag.String("kind", "path", "path | tree | star | dary | caterpillar | pde")
	n := flag.Int("n", 100, "number of tasks")
	seed := flag.Uint64("seed", 1, "random seed")
	dist := flag.String("dist", "uniform", "node weight distribution: uniform | exponential | pareto | bimodal | constant")
	wlo := flag.Float64("wlo", 1, "node weight lower bound")
	whi := flag.Float64("whi", 100, "node weight upper bound")
	elo := flag.Float64("elo", 1, "edge weight lower bound")
	ehi := flag.Float64("ehi", 100, "edge weight upper bound")
	d := flag.Int("d", 2, "arity for -kind dary")
	spine := flag.Int("spine", 10, "spine length for -kind caterpillar")
	leaves := flag.Int("leaves", 3, "leaves per spine vertex for -kind caterpillar")
	rows := flag.Int("rows", 32, "grid rows for -kind pde")
	cols := flag.Int("cols", 1024, "grid columns for -kind pde")
	format := flag.String("format", "text", "output encoding: text | json | bin")
	flag.Parse()

	switch *format {
	case "text", "json", "bin":
	default:
		return fmt.Errorf("unknown format %q (want text, json, or bin)", *format)
	}

	switch *kind {
	case "caterpillar":
		if *spine <= 0 || *leaves < 0 {
			return fmt.Errorf("-spine must be positive and -leaves non-negative (got %d, %d)", *spine, *leaves)
		}
	case "pde":
		if *rows <= 0 || *cols <= 0 {
			return fmt.Errorf("-rows and -cols must be positive (got %d, %d)", *rows, *cols)
		}
	case "dary":
		if *d < 2 {
			return fmt.Errorf("-d must be at least 2 (got %d)", *d)
		}
		fallthrough
	default:
		if *n <= 0 {
			return fmt.Errorf("-n must be positive (got %d)", *n)
		}
	}
	if *whi < *wlo || *ehi < *elo {
		return fmt.Errorf("weight bounds must satisfy lo <= hi (node %g..%g, edge %g..%g)", *wlo, *whi, *elo, *ehi)
	}

	var dd workload.Dist
	switch *dist {
	case "uniform":
		dd = workload.DistUniform
	case "exponential":
		dd = workload.DistExponential
	case "pareto":
		dd = workload.DistPareto
	case "bimodal":
		dd = workload.DistBimodal
	case "constant":
		dd = workload.DistConstant
	default:
		return fmt.Errorf("unknown distribution %q", *dist)
	}
	nodeW := workload.Weights{Dist: dd, Lo: *wlo, Hi: *whi}
	edgeW := workload.UniformWeights(*elo, *ehi)
	r := workload.NewRNG(*seed)

	var g any
	switch *kind {
	case "path":
		g = workload.RandomPath(r, *n, nodeW, edgeW)
	case "tree":
		g = workload.RandomTree(r, *n, nodeW, edgeW)
	case "star":
		g = workload.Star(r, *n, nodeW, edgeW)
	case "dary":
		g = workload.DaryTree(r, *n, *d, nodeW, edgeW)
	case "caterpillar":
		g = workload.Caterpillar(r, *spine, *leaves, nodeW, edgeW)
	case "pde":
		g = workload.PDEStrips(r, *rows, *cols, 5, 8)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	switch *format {
	case "json":
		return graph.WriteJSON(os.Stdout, g)
	case "bin":
		w := bufio.NewWriter(os.Stdout)
		if err := codec.Encode(w, g); err != nil {
			return err
		}
		return w.Flush()
	}
	switch g := g.(type) {
	case *graph.Path:
		return graph.WritePath(os.Stdout, g)
	case *graph.Tree:
		return graph.WriteTree(os.Stdout, g)
	default:
		return fmt.Errorf("cannot encode a %T", g)
	}
}
