// Package pipeline models the §3 real-time computing application: a task T
// with deadline k, maximally divided into a chain of subtasks t_1..t_n with
// data dependencies dp_i between consecutive subtasks, to be partitioned so
// that (1) every processor's share completes within the deadline, (2) the
// total network cost of cut dependencies is minimized, and (3) the highest
// single cut dependency (the bottleneck demand) is also reported.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
)

// Sentinel errors.
var (
	// ErrBadSpec is returned for invalid deadlines or task chains.
	ErrBadSpec = errors.New("pipeline: bad specification")
	// ErrDeadline is returned when no partition can meet the deadline.
	ErrDeadline = errors.New("pipeline: deadline unachievable")
)

// Spec is the real-time task of §3.
type Spec struct {
	// Tasks is the subtask chain: node weights are processing requirements
	// (work units), edge weights are the dependency costs w(dp_i)
	// (traffic/reliability weights).
	Tasks *graph.Path
	// Deadline is k, the completion bound in time units.
	Deadline float64
}

// Validate checks the specification.
func (s *Spec) Validate() error {
	if s.Tasks == nil {
		return fmt.Errorf("nil task chain: %w", ErrBadSpec)
	}
	if err := s.Tasks.Validate(); err != nil {
		return err
	}
	if !(s.Deadline > 0) || math.IsNaN(s.Deadline) || math.IsInf(s.Deadline, 0) {
		return fmt.Errorf("deadline %v: %w", s.Deadline, ErrBadSpec)
	}
	return nil
}

// Plan is a deadline-feasible partition mapped onto a machine.
type Plan struct {
	// Partition is the bandwidth-minimal cut satisfying the deadline.
	Partition *core.PathPartition
	// Mapping assigns components to processors (identity on shared memory).
	Mapping *arch.Mapping
	// Metrics are the static quality measures of the partition.
	Metrics *arch.Metrics
	// StageTime is the slowest component's execution time; it is ≤ the
	// deadline by construction.
	StageTime float64
	// Throughput is the steady-state pipeline rate (problem instances per
	// unit time), limited by the slower of computation and bus transfer.
	Throughput float64
}

// Build computes the §3 partition: bandwidth minimization under
// K = deadline × speed, then the trivial shared-memory mapping. It returns
// ErrDeadline when even maximal division cannot meet the deadline, and
// arch.ErrTooFewProcessors when the machine is too small for the resulting
// number of components.
func Build(spec *Spec, m *arch.Machine) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	k := spec.Deadline * m.Speed
	part, _, err := core.Bandwidth(context.Background(), spec.Tasks, k)
	if err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			return nil, fmt.Errorf("%v: %w", err, ErrDeadline)
		}
		return nil, err
	}
	mapping, err := arch.MapComponents(m, part.NumComponents())
	if err != nil {
		return nil, err
	}
	metrics, err := arch.EvaluatePath(m, spec.Tasks, part.Cut)
	if err != nil {
		return nil, err
	}
	rate := metrics.ComputeMakespan
	if metrics.BusTime > rate {
		rate = metrics.BusTime
	}
	plan := &Plan{
		Partition: part,
		Mapping:   mapping,
		Metrics:   metrics,
		StageTime: metrics.ComputeMakespan,
	}
	if rate > 0 {
		plan.Throughput = 1 / rate
	}
	return plan, nil
}

// MeetsDeadline reports whether every component completes within the
// deadline on the machine.
func (p *Plan) MeetsDeadline(spec *Spec) bool {
	return p.StageTime <= spec.Deadline+1e-12
}

// MinimalProcessors returns the smallest processor count that can meet the
// deadline (first-fit on the chain), independent of communication cost; the
// gap between this and Build's component count is the §2.2 fragmentation
// trade-off.
func MinimalProcessors(spec *Spec, m *arch.Machine) (int, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	if err := m.Validate(); err != nil {
		return 0, err
	}
	k := spec.Deadline * m.Speed
	pp, _, err := core.MinProcessorsPath(context.Background(), spec.Tasks, k)
	if err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			return 0, fmt.Errorf("%v: %w", err, ErrDeadline)
		}
		return 0, err
	}
	return pp.NumComponents(), nil
}
