package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestObjectiveString(t *testing.T) {
	tests := []struct {
		o    Objective
		want string
	}{
		{ObjectiveUnknown, "unknown"},
		{ObjectiveNone, "none"},
		{ObjectiveBandwidth, "bandwidth"},
		{ObjectiveBottleneck, "bottleneck"},
		{ObjectiveMinProcs, "minprocs"},
		{ObjectiveMaxMin, "maxmin"},
		{ObjectiveSumOfMax, "summax"},
		{Objective(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.o.String(); got != tt.want {
			t.Errorf("Objective(%d).String() = %q, want %q", int(tt.o), got, tt.want)
		}
	}
}

// Every registered production solver must declare its objective; the
// verification subsystem keys its certificate choice on it.
func TestObjectiveOfRegistry(t *testing.T) {
	want := map[string]Objective{
		"bandwidth":         ObjectiveBandwidth,
		"bandwidth-heap":    ObjectiveBandwidth,
		"bandwidth-deque":   ObjectiveBandwidth,
		"bandwidth-naive":   ObjectiveBandwidth,
		"bandwidth-limited": ObjectiveBandwidth,
		"minproc-path":      ObjectiveMinProcs,
		"bottleneck":        ObjectiveBottleneck,
		"bottleneck-greedy": ObjectiveBottleneck,
		"minproc":           ObjectiveMinProcs,
		// partition-tree minimizes processors subject to the optimal
		// bottleneck; the bottleneck value is what is certified.
		"partition-tree": ObjectiveBottleneck,
		"maxmin-path":    ObjectiveMaxMin,
		"maxmin-tree":    ObjectiveMaxMin,
		"summax-tree":    ObjectiveSumOfMax,
		// The NP-hard treecut tier opts out of certification explicitly:
		// ObjectiveNone is a declared policy, not a missing declaration.
		"treecut-exact":  ObjectiveNone,
		"treecut-bb":     ObjectiveNone,
		"treecut-greedy": ObjectiveNone,
	}
	for name, obj := range want {
		s, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if got := ObjectiveOf(s); got != obj {
			t.Errorf("ObjectiveOf(%q) = %v, want %v", name, got, obj)
		}
	}
}

// Part-count solvers must reject a fractional K before touching the core
// solver: the part count travels in the float64 K slot of every request
// shape, so the integral check is the engine adapter's job.
func TestPartCountSolversRejectFractionalK(t *testing.T) {
	p := testPath(t, 8)
	tr := testTree(t, 8)
	for _, tt := range []struct {
		solver string
		req    Request
	}{
		{"maxmin-path", Request{Solver: "maxmin-path", Path: p, K: 2.5}},
		{"maxmin-tree", Request{Solver: "maxmin-tree", Tree: tr, K: 2.5}},
		{"summax-tree", Request{Solver: "summax-tree", Tree: tr, K: 2.5}},
	} {
		if _, err := Solve(context.Background(), tt.req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s with K=2.5: err = %v, want ErrBadRequest", tt.solver, err)
		}
	}
}

// Regression: every registered solver must take an explicit stance — a
// certifiable objective or the deliberate ObjectiveNone opt-out. A solver
// reporting ObjectiveUnknown slipped into the registry without declaring,
// and the verification harness would skip it by zero-value accident.
func TestRegistryDeclaresAllObjectives(t *testing.T) {
	for _, name := range Names() {
		if strings.HasPrefix(name, "test-") {
			// Throwaway solvers registered by other test files.
			continue
		}
		s, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if ObjectiveOf(s) == ObjectiveUnknown {
			t.Errorf("solver %q reports ObjectiveUnknown; declare an objective or ObjectiveNone", name)
		}
	}
}
