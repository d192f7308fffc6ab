// Package arch models the paper's target: a homogeneous shared-memory
// multiprocessor (§1). All processors have the same speed and the
// interconnection network (crossbar, shared bus, or multistage network) has
// uniform latency, so w(l_i) is the same for every link. That uniformity is
// what makes the mapping M of a partition onto the architecture trivial
// (§3): component i simply goes to processor i.
package arch

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
)

// Sentinel errors.
var (
	// ErrBadMachine is returned for non-positive machine parameters.
	ErrBadMachine = errors.New("arch: bad machine description")
	// ErrTooFewProcessors is returned when a partition has more components
	// than the machine has processors.
	ErrTooFewProcessors = errors.New("arch: more components than processors")
)

// Machine describes a homogeneous shared-memory multiprocessor.
type Machine struct {
	// Processors is the number of identical processors.
	Processors int
	// Speed is each processor's processing rate (task weight units per unit
	// time).
	Speed float64
	// BusBandwidth is the shared interconnect's transfer rate (edge weight
	// units per unit time). The network is symmetric and uniform, the
	// defining property of the architecture class (§1).
	BusBandwidth float64
}

// Validate checks machine parameters.
func (m *Machine) Validate() error {
	if m.Processors <= 0 {
		return fmt.Errorf("processors = %d: %w", m.Processors, ErrBadMachine)
	}
	if !(m.Speed > 0) || math.IsInf(m.Speed, 0) || math.IsNaN(m.Speed) {
		return fmt.Errorf("speed = %v: %w", m.Speed, ErrBadMachine)
	}
	if !(m.BusBandwidth > 0) || math.IsInf(m.BusBandwidth, 0) || math.IsNaN(m.BusBandwidth) {
		return fmt.Errorf("bus bandwidth = %v: %w", m.BusBandwidth, ErrBadMachine)
	}
	return nil
}

// CheckComponents reports, wrapping ErrTooFewProcessors, whether a partition
// of numComponents components needs more processors than m has.
func (m *Machine) CheckComponents(numComponents int) error {
	if numComponents > m.Processors {
		return fmt.Errorf("%d components, %d processors: %w", numComponents, m.Processors, ErrTooFewProcessors)
	}
	return nil
}

// Mapping assigns partition components to processors. On a shared-memory
// machine the identity assignment is optimal (§3: "renders a straightforward
// mapping of the optimally partitioned graph onto the available processors").
type Mapping struct {
	// Processor[c] is the processor that runs component c.
	Processor []int
}

// MapComponents produces the trivial identity mapping, failing if the
// machine is too small.
func MapComponents(m *Machine, numComponents int) (*Mapping, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := m.CheckComponents(numComponents); err != nil {
		return nil, err
	}
	mp := &Mapping{Processor: make([]int, numComponents)}
	for c := range mp.Processor {
		mp.Processor[c] = c
	}
	return mp, nil
}

// Metrics summarizes the static quality of a partition on a machine.
type Metrics struct {
	// ComputeMakespan is the heaviest component's compute time (load/speed):
	// the per-iteration lower bound on execution time, ignoring contention.
	ComputeMakespan float64
	// TotalTraffic is the summed weight of cut edges: the bandwidth demand
	// the partition places on the interconnect per iteration (the quantity
	// bandwidth minimization minimizes).
	TotalTraffic float64
	// BusTime is TotalTraffic / BusBandwidth: serialized transfer time per
	// iteration on the shared bus.
	BusTime float64
	// MaxProcessorTraffic is the largest per-component incident cut weight:
	// the single-processor network demand that bottleneck minimization
	// relates to.
	MaxProcessorTraffic float64
	// Utilization is mean component load divided by max component load, in
	// (0, 1]; 1 is perfect balance.
	Utilization float64
	// Components is the number of processors actually used.
	Components int
}

// EvaluatePath computes Metrics for a path partition.
func EvaluatePath(m *Machine, p *graph.Path, cut []int) (*Metrics, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ws, err := p.ComponentWeights(cut)
	if err != nil {
		return nil, err
	}
	if err := m.CheckComponents(len(ws)); err != nil {
		return nil, err
	}
	// Component of vertex v: count cuts before v.
	comp := make([]int, p.Len())
	ci := 0
	cutSet := make(map[int]bool, len(cut))
	for _, e := range cut {
		cutSet[e] = true
	}
	for v := 0; v < p.Len(); v++ {
		comp[v] = ci
		if v < p.NumEdges() && cutSet[v] {
			ci++
		}
	}
	perProc := make([]float64, len(ws))
	var total float64
	for _, e := range cut {
		w := p.EdgeW[e]
		total += w
		perProc[comp[e]] += w
		perProc[comp[e+1]] += w
	}
	return buildMetrics(m, ws, total, perProc), nil
}

// EvaluateTree computes Metrics for a tree partition. It checks t first (a
// frozen tree passes at once), since its components are labelled on t's
// rooted view.
func EvaluateTree(m *Machine, t *graph.Tree, cut []int) (*Metrics, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	comps, err := t.Components(cut)
	if err != nil {
		return nil, err
	}
	if err := m.CheckComponents(len(comps)); err != nil {
		return nil, err
	}
	comp := make([]int, t.Len())
	ws := make([]float64, len(comps))
	for ci, vs := range comps {
		for _, v := range vs {
			comp[v] = ci
			ws[ci] += t.NodeW[v]
		}
	}
	perProc := make([]float64, len(comps))
	var total float64
	for _, e := range cut {
		edge := t.Edges[e]
		total += edge.W
		perProc[comp[edge.U]] += edge.W
		perProc[comp[edge.V]] += edge.W
	}
	return buildMetrics(m, ws, total, perProc), nil
}

func buildMetrics(m *Machine, loads []float64, totalTraffic float64, perProc []float64) *Metrics {
	maxLoad, sumLoad := 0.0, 0.0
	for _, w := range loads {
		sumLoad += w
		if w > maxLoad {
			maxLoad = w
		}
	}
	maxTraffic := 0.0
	for _, w := range perProc {
		if w > maxTraffic {
			maxTraffic = w
		}
	}
	util := 1.0
	if maxLoad > 0 {
		util = sumLoad / float64(len(loads)) / maxLoad
	}
	return &Metrics{
		ComputeMakespan:     maxLoad / m.Speed,
		TotalTraffic:        totalTraffic,
		BusTime:             totalTraffic / m.BusBandwidth,
		MaxProcessorTraffic: maxTraffic,
		Utilization:         util,
		Components:          len(loads),
	}
}
