//go:build race

package verify

// The allocation gates skip under the race detector, as the repository's
// others do; CI runs them in a step of their own without it.
func init() { raceEnabled = true }
