package engine

// RegisterForTest registers s, as Register does, until the test that tb
// belongs to ends, so a stand-in solver never outlives its test in the
// process-wide registry. tb is a *testing.T, *testing.B or *testing.F; the
// parameter names only the method used, so this package does not import
// testing.
func RegisterForTest(tb interface{ Cleanup(func()) }, s Solver) {
	Register(s)
	tb.Cleanup(func() {
		regMu.Lock()
		delete(registry, s.Name())
		regMu.Unlock()
	})
}
