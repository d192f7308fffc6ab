//go:build race

package repro_test

// Under the race detector sync.Pool drops a share of what it is given, so
// allocation gates that rely on a pooled buffer being reused do not hold.
func init() { raceEnabled = true }
