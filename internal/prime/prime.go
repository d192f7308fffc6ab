// Package prime computes the prime critical subpaths of a linear task graph
// and the non-redundant edge compression that the paper's bandwidth
// minimization algorithm (§2.3) is built on.
//
// A critical subpath is a contiguous run of tasks whose total vertex weight
// exceeds the bound K; a feasible cut must contain at least one edge of every
// critical subpath. A critical subpath that contains no other critical
// subpath is prime (the paper's minimal subpaths); only the prime ones
// constrain the solution, and there are at most n−1 of them. Two edges that
// belong to exactly the same set of prime subpaths are interchangeable except
// for weight, so only the lightest of each such run — the non-redundant
// edges — can ever appear in an optimal cut (§2.3: "a list of non-redundant
// edges may be prepared in O(n) time", with at most 2p−1 of them).
//
// Both halves are single linear passes. Find sweeps the right end r of a
// window kept at weight ≤ K; each time the left end has to move, the window
// one vertex wider on the left is the prime subpath ending at r, final when
// appended. Compress walks the runs between consecutive subpath endpoints
// (coverage changes only there) and keeps each run's lightest edge.
package prime

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrVertexTooHeavy is returned when a single task exceeds the bound K, in
// which case no edge cut can make every component feasible (the paper assumes
// K > max α_i).
var ErrVertexTooHeavy = errors.New("prime: single vertex weight exceeds K")

// Interval is a prime critical subpath as the inclusive edge range [A, B]:
// it spans vertices A..B+1.
type Interval struct {
	A, B int
}

// Find returns the prime critical subpaths of the path with the given vertex
// weights and bound K, in increasing order of both endpoints, or nil when
// there are none. It runs in O(n) time: one sweep over the right end r keeps
// the window lo..r at weight ≤ K; the shortest critical subpath ending at r
// is lo−1..r, and it is prime exactly when lo had to move for r. It returns
// ErrVertexTooHeavy if some single vertex already exceeds K.
func Find(nodeW []float64, k float64) ([]Interval, error) {
	ivs, err := findInto(nil, nodeW, k)
	if len(ivs) == 0 {
		return nil, err
	}
	return ivs, nil
}

// findInto is Find appending into dst[:0], reusing its capacity. There are
// at most n−1 prime subpaths (one per right end r ≥ 1), so the result is
// sized once up front.
func findInto(dst []Interval, nodeW []float64, k float64) ([]Interval, error) {
	if math.IsNaN(k) {
		return nil, fmt.Errorf("prime: K=%v is not a number", k)
	}
	out := slices.Grow(dst[:0], max(len(nodeW)-1, 0))
	lo := 0
	var sum float64
	for r, w := range nodeW {
		sum += w
		if sum <= k {
			continue
		}
		for sum > k {
			if lo == r {
				return nil, fmt.Errorf("vertex %d weight %v > K=%v: %w", r, w, k, ErrVertexTooHeavy)
			}
			sum -= nodeW[lo]
			lo++
		}
		// lo moved, so lo−1..r is critical while lo..r and lo−1..r−1 (inside
		// the window kept for r−1) are not: it is prime, and final.
		out = append(out, Interval{A: lo - 1, B: r - 1})
	}
	return out, nil
}

// Instance is the compressed bandwidth-minimization instance: the
// non-redundant edges and the prime subpaths re-indexed over them.
type Instance struct {
	// Beta[i] is the weight of the i-th non-redundant edge.
	Beta []float64
	// Orig[i] is the original path edge index of the i-th non-redundant edge.
	Orig []int
	// A[j], B[j] are interval j's inclusive endpoints over compressed edge
	// indices; both strictly increasing in j.
	A, B []int
	// First[i], Last[i] are the first and last interval containing compressed
	// edge i (the paper's c_i and d_i); every compressed edge belongs to the
	// contiguous interval range [First[i], Last[i]].
	First, Last []int
}

// NumIntervals returns p, the number of prime subpaths.
func (in *Instance) NumIntervals() int { return len(in.A) }

// NumEdges returns r, the number of non-redundant edges.
func (in *Instance) NumEdges() int { return len(in.Beta) }

// MeanCoverage returns the paper's q = Σ q_i / r, the mean number of prime
// subpaths a non-redundant edge belongs to, or 0 when there are no edges.
func (in *Instance) MeanCoverage() float64 {
	if len(in.Beta) == 0 {
		return 0
	}
	var sum float64
	for i := range in.Beta {
		sum += float64(in.Last[i] - in.First[i] + 1)
	}
	return sum / float64(len(in.Beta))
}

// MaxCoverage returns max_i q_i, or 0 when there are no edges.
func (in *Instance) MaxCoverage() int {
	m := 0
	for i := range in.Beta {
		if c := in.Last[i] - in.First[i] + 1; c > m {
			m = c
		}
	}
	return m
}

// Compress builds the compressed instance from the original edge weights and
// the prime subpaths returned by Find. Edges covered by no prime subpath are
// dropped; among consecutive edges covered by exactly the same prime
// subpaths, only a lightest one is kept. Runs in O(n + p) time.
func Compress(edgeW []float64, ivs []Interval) *Instance {
	return compressInto(&Instance{}, edgeW, ivs)
}

// compressInto is Compress writing into inst, reusing its arrays' capacity.
// Subpaths [closed, open) cover the run starting at edge e, which ends at the
// next A_j (j opens) or B_j+1 (j closes); A[j] and B[j] are those runs.
func compressInto(inst *Instance, edgeW []float64, ivs []Interval) *Instance {
	p := len(ivs)
	inst.A = slices.Grow(inst.A[:0], p)[:p]
	inst.B = slices.Grow(inst.B[:0], p)[:p]
	// At most min(n-1, 2p-1) non-redundant edges survive (§2.3).
	r := max(min(2*p-1, len(edgeW)), 0)
	inst.Beta = slices.Grow(inst.Beta[:0], r)
	inst.Orig = slices.Grow(inst.Orig[:0], r)
	inst.First = slices.Grow(inst.First[:0], r)
	inst.Last = slices.Grow(inst.Last[:0], r)
	e, open, closed := 0, 0, 0
	for closed < p {
		if closed == open {
			e = ivs[open].A // skip the uncovered gap
		}
		for open < p && ivs[open].A <= e {
			inst.A[open] = len(inst.Beta)
			open++
		}
		end := ivs[closed].B + 1
		if open < p && ivs[open].A < end {
			end = ivs[open].A
		}
		best := e // the run's lightest edge, the first on ties
		for i := e + 1; i < end; i++ {
			if edgeW[i] < edgeW[best] {
				best = i
			}
		}
		inst.Beta = append(inst.Beta, edgeW[best])
		inst.Orig = append(inst.Orig, best)
		inst.First = append(inst.First, closed)
		inst.Last = append(inst.Last, open-1)
		for closed < open && ivs[closed].B < end {
			inst.B[closed] = len(inst.Beta) - 1
			closed++
		}
		e = end
	}
	return inst
}

// Analyze runs Find and Compress together, returning the instance, the prime
// subpaths, or an infeasibility error.
func Analyze(nodeW, edgeW []float64, k float64) (*Instance, []Interval, error) {
	var s Scratch
	return s.Analyze(nodeW, edgeW, k)
}

// Scratch holds the working arrays of Analyze so repeated solves reuse them
// instead of reallocating — the bandwidth solver's per-solve scratch
// (internal/core pools one per solve). The Instance and Interval slices
// returned by Scratch.Analyze alias the scratch and are invalidated by the
// next Analyze call on the same Scratch.
type Scratch struct {
	ivs  []Interval
	inst Instance
}

// Analyze is the package-level Analyze writing into s's reusable arrays.
func (s *Scratch) Analyze(nodeW, edgeW []float64, k float64) (*Instance, []Interval, error) {
	ivs, err := findInto(s.ivs, nodeW, k)
	if err != nil {
		return nil, nil, err
	}
	s.ivs = ivs
	return compressInto(&s.inst, edgeW, ivs), ivs, nil
}

// Stats summarizes an instance for the Figure 2 study.
type Stats struct {
	N    int     // tasks in the original path
	P    int     // prime subpaths
	R    int     // non-redundant edges
	Q    float64 // mean prime-subpath coverage per non-redundant edge
	QMax int     // max coverage
}

// Summarize computes the Figure 2 statistics for one instance.
func Summarize(n int, inst *Instance) Stats {
	return Stats{
		N:    n,
		P:    inst.NumIntervals(),
		R:    inst.NumEdges(),
		Q:    inst.MeanCoverage(),
		QMax: inst.MaxCoverage(),
	}
}
