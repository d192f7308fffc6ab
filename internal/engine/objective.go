package engine

// Objective classifies what a solver's result minimizes, subject to the
// execution-time bound K. It is the hook the verification subsystem
// (internal/verify) keys its certificate checkers and differential oracles
// on: two solvers sharing an objective must agree on the objective value for
// the same input, and each objective has an independent optimality
// certificate.
type Objective int

const (
	// ObjectiveNone marks solvers that deliberately declare no certifiable
	// objective (the NP-hard treecut tier): verification skips them by
	// policy. It is distinct from ObjectiveUnknown, the zero value.
	ObjectiveNone Objective = -1
	// ObjectiveUnknown is the objective of a solver that declares none;
	// such solvers cannot be certified or cross-checked.
	ObjectiveUnknown Objective = iota
	// ObjectiveBandwidth minimizes the total cut weight (§2.3).
	ObjectiveBandwidth
	// ObjectiveBottleneck minimizes the heaviest cut-edge weight (§2.1).
	ObjectiveBottleneck
	// ObjectiveMinProcs minimizes the number of components (§2.2).
	ObjectiveMinProcs
	// ObjectiveMaxMin maximizes the minimum component weight of an
	// exactly-K-component partition (Frederickson–Zhou, arXiv 1711.00599).
	// Requests carry the part count in K rather than a weight bound.
	ObjectiveMaxMin
	// ObjectiveSumOfMax minimizes the sum over components of the maximum
	// node weight of an exactly-K-component partition (arXiv 2503.11526).
	// Requests carry the part count in K rather than a weight bound.
	ObjectiveSumOfMax
)

// String returns the stable objective label used in listings and logs.
func (o Objective) String() string {
	switch o {
	case ObjectiveNone:
		return "none"
	case ObjectiveBandwidth:
		return "bandwidth"
	case ObjectiveBottleneck:
		return "bottleneck"
	case ObjectiveMinProcs:
		return "minprocs"
	case ObjectiveMaxMin:
		return "maxmin"
	case ObjectiveSumOfMax:
		return "summax"
	default:
		return "unknown"
	}
}

// ObjectiveOf returns the solver's declared objective.
func ObjectiveOf(s Solver) Objective { return s.Objective() }
