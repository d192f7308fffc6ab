package engine

import (
	"fmt"
	"sort"
	"sync"
)

// The solver registry maps stable names to Solver implementations. All of
// the repository's partitioners register themselves in this package's init
// (solvers.go); external packages may add more with Register.

var (
	regMu    sync.RWMutex
	registry = make(map[string]Solver)
)

// Register adds a solver under its Name. It panics on an empty name or a
// duplicate registration — both are programmer errors caught at init time.
func Register(s Solver) {
	name := s.Name()
	if name == "" {
		panic("engine: Register with empty solver name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate solver registration %q", name))
	}
	registry[name] = s
}

// Get returns the solver registered under name, or ErrUnknownSolver.
func Get(name string) (Solver, error) {
	regMu.RLock()
	s, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownSolver, name, Names())
	}
	return s, nil
}

// Names returns the registered solver names in sorted order.
func Names() []string {
	regMu.RLock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	regMu.RUnlock()
	sort.Strings(names)
	return names
}
