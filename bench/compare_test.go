package main

import (
	"os"
	"path/filepath"
	"testing"
)

var testBench = &benchFile{EndToEnd: []metricDef{
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}}

// baselineOf builds a baseline of one workload whose runs read the given
// values per metric.
func baselineOf(workload string, runs map[string][]float64) *baseline {
	var b baseline
	for name, vals := range runs {
		for i, v := range vals {
			for len(b.Runs) <= i {
				b.Runs = append(b.Runs, baselineRun{Workload: workload, Seed: uint64(len(b.Runs) + 1), Set: 1,
					Attempted: 1000, Metrics: map[string]float64{}})
			}
			b.Runs[i].Metrics[name] = v
		}
	}
	return &b
}

func verdictsByMetric(vs []verdict) map[string]string {
	out := map[string]string{}
	for _, v := range vs {
		out[v.Metric] = v.Result
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	base := baselineOf("w", map[string][]float64{
		"throughput_rps": {100, 101, 99, 100, 102},
		"p50_ms":         {5, 5.1, 4.9, 5, 5.05},
		"p99_ms":         {10, 14, 7, 12, 9}, // spread above its 15% bound
		"setup_s":        {0.10, 0.11, 0.10, 0.09, 0.10},
	})
	for _, tc := range []struct {
		name      string
		cur       map[string]float64
		failed    int
		want      map[string]string
		regressed bool
	}{
		{
			name:      "unchanged",
			cur:       map[string]float64{"throughput_rps": 98, "p50_ms": 5.2, "p99_ms": 11, "setup_s": 0.11},
			want:      map[string]string{"throughput_rps": "same", "p50_ms": "same", "p99_ms": "unresolved", "setup_s": "same", "error_rate": "same"},
			regressed: false,
		},
		{
			name:      "synthetic regression",
			cur:       map[string]float64{"throughput_rps": 80, "p50_ms": 6, "p99_ms": 30, "setup_s": 0.11},
			want:      map[string]string{"throughput_rps": "worse", "p50_ms": "worse", "p99_ms": "unresolved", "setup_s": "same", "error_rate": "same"},
			regressed: true,
		},
		{
			name:      "improvement",
			cur:       map[string]float64{"throughput_rps": 130, "p50_ms": 4, "p99_ms": 5, "setup_s": 0.01},
			want:      map[string]string{"throughput_rps": "better", "p50_ms": "better", "p99_ms": "unresolved", "setup_s": "better", "error_rate": "same"},
			regressed: false,
		},
		{
			// 40% slower but only 40 ms: under the absolute set-up floor.
			name:      "setup jitter below the floor",
			cur:       map[string]float64{"throughput_rps": 100, "p50_ms": 5, "p99_ms": 10, "setup_s": 0.14},
			want:      map[string]string{"setup_s": "same"},
			regressed: false,
		},
		{
			name:      "failed ops",
			cur:       map[string]float64{"throughput_rps": 100, "p50_ms": 5, "p99_ms": 10, "setup_s": 0.10},
			failed:    1,
			want:      map[string]string{"throughput_rps": "same", "error_rate": "worse"},
			regressed: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := &report{Workload: "w", Attempted: 1000, Failed: tc.failed, EndToEnd: tc.cur}
			vs, regressed := compare(base, testBench, []*report{rep})
			got := verdictsByMetric(vs)
			for m, want := range tc.want {
				if got[m] != want {
					t.Errorf("%s: %s, want %s (all: %v)", m, got[m], want, got)
				}
			}
			if regressed != tc.regressed {
				t.Errorf("regressed = %t, want %t", regressed, tc.regressed)
			}
		})
	}
}

func TestCompareWithoutBaselineRunsIsUnresolved(t *testing.T) {
	base := baselineOf("other", map[string][]float64{"p50_ms": {1, 1, 1}})
	rep := &report{Workload: "w", Attempted: 10, EndToEnd: map[string]float64{"p50_ms": 100}}
	vs, regressed := compare(base, testBench, []*report{rep})
	if got := verdictsByMetric(vs)["p50_ms"]; got != "unresolved" || regressed {
		t.Errorf("p50_ms = %s (regressed %t), want unresolved", got, regressed)
	}
}

func TestRecordNumbersSets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	rep := func(seed uint64) *report {
		return &report{Workload: "w", Seed: seed, Attempted: 10, EndToEnd: map[string]float64{"p50_ms": 1, "other": 2}}
	}
	for _, seeds := range [][]uint64{{1, 2}, {1, 2}} {
		var reps []*report
		for _, s := range seeds {
			reps = append(reps, rep(s))
		}
		if err := record(path, reps, testBench); err != nil {
			t.Fatal(err)
		}
	}
	base, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	var sets []int
	for _, r := range base.Runs {
		sets = append(sets, r.Set)
		if _, ok := r.Metrics["other"]; ok {
			t.Error("recorded a metric BENCHMARK.json does not name")
		}
	}
	if want := []int{1, 1, 2, 2}; len(sets) != 4 || sets[0] != want[0] || sets[1] != want[1] || sets[2] != want[2] || sets[3] != want[3] {
		t.Errorf("sets = %v, want %v", sets, want)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}
