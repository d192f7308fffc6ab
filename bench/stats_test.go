package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 500, true},
		{99, 500, true},
		{100, 900, true},
		{999, 900, true},
		{1000, 990, true},
		{9999, 990, true},
		{10000, 999, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %d, %t; want %d, %t", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		permille int
		want     float64
		ok       bool
	}{
		{500, 500, true},
		{900, 900, true},
		{990, 990, true},
		{999, 0, false}, // one sample beyond p99.9: not a measurement
	} {
		got, ok := percentile(s, tc.permille)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..1000, %d) = %v, %t; want %v, %t", tc.permille, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(s[:999], 990); ok {
		t.Error("p99 of 999 samples reported; it has only 9 samples beyond it")
	}
}

// The reference values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.data)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}
