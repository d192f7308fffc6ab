package main

import (
	"math"
	"sort"
)

// Percentiles are named in tenths of a percent (500 = p50, 999 = p99.9) so
// the "enough samples beyond it" test is exact integer arithmetic.
var percentileLadder = []int{500, 900, 990, 999}

// supported reports whether n samples put at least ten beyond the
// percentile: n·(1 − p) ≥ 10. A percentile with fewer samples behind it is a
// handful of outliers, not a measurement.
func supported(n, permille int) bool {
	return n*(1000-permille) >= 10*1000
}

// tailPercentile returns the highest percentile of the ladder that n samples
// support, and false when not even the median is supported.
func tailPercentile(n int) (int, bool) {
	best, ok := 0, false
	for _, p := range percentileLadder {
		if supported(n, p) {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank percentile of sorted samples, and
// false when the sample count does not support it.
func percentile(sorted []float64, permille int) (float64, bool) {
	n := len(sorted)
	if n == 0 || !supported(n, permille) {
		return 0, false
	}
	rank := (permille*n + 999) / 1000 // ⌈p·n⌉
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], true
}

// median returns the median of the values (the mean of the middle two for
// an even count), or 0 for none. The input is not modified.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sortedCopy(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(values, n=4) computes them (its default "exclusive"
// method, extrapolation for tiny samples included), so the spreads reported
// here are the ones that reference computes.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run variability the regression bounds are sized against.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
