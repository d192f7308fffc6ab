package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
)

// Baselines and the regression gate. A baseline file holds recorded runs;
// -compare judges each (workload, end-to-end metric) of the current run
// against the median of the baseline's runs of that workload, with the
// bounds BENCHMARK.json fixes.

// setupFloor is the absolute change setup_s must also exceed to count as
// better or worse: the set-up is sub-second, and a relative bound alone
// would flag process-start jitter.
const setupFloor = 0.05

// baselineRun is one recorded run.
type baselineRun struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Set       int                `json:"set"`
	Host      hostInfo           `json:"host"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

type baseline struct {
	Runs []baselineRun `json:"runs"`
}

func loadBaseline(path string) (*baseline, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base baseline
	if err := json.Unmarshal(b, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &base, nil
}

// record appends the reports' end-to-end results to the baseline file,
// creating it if needed. A run's set number counts earlier recordings of
// the same workload and seed, so recording the same seeds twice yields sets
// 1 and 2.
func record(path string, reports []*report, bf *benchFile) error {
	base, err := loadBaseline(path)
	if errors.Is(err, fs.ErrNotExist) {
		base, err = &baseline{}, nil
	}
	if err != nil {
		return err
	}
	for _, r := range reports {
		run := baselineRun{Workload: r.Workload, Seed: r.Seed, Set: 1, Host: r.Host,
			Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]float64{}}
		for _, prev := range base.Runs {
			if prev.Workload == r.Workload && prev.Seed == r.Seed {
				run.Set++
			}
		}
		for _, d := range bf.EndToEnd {
			if v, ok := r.EndToEnd[d.Name]; ok && !math.IsInf(v, 0) {
				run.Metrics[d.Name] = v
			}
		}
		base.Runs = append(base.Runs, run)
	}
	// One run per line keeps the file reviewable in diffs.
	var buf bytes.Buffer
	buf.WriteString("{\"runs\": [\n")
	for i, run := range base.Runs {
		line, err := json.Marshal(run)
		if err != nil {
			return err
		}
		buf.Write(line)
		if i < len(base.Runs)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// verdict is the judgement of one (workload, metric).
type verdict struct {
	Workload, Metric string
	Base             float64 // median of the baseline runs
	Spread           float64 // their interquartile range over the median
	Bound            float64
	Current          float64
	Change           float64 // relative, positive = worse
	Result           string  // better, same, worse or unresolved
}

// compare judges every end-to-end metric of every report against the
// baseline. A metric is unresolved when the baseline has no runs of the
// workload or its own spread exceeds the bound. regressed is true on any
// worse metric or an error rate above every baseline run's.
func compare(base *baseline, bf *benchFile, reports []*report) (verdicts []verdict, regressed bool) {
	for _, r := range reports {
		var runs []baselineRun
		worstErr := 0.0
		for _, b := range base.Runs {
			if b.Workload == r.Workload {
				runs = append(runs, b)
				worstErr = math.Max(worstErr, float64(b.Failed)/float64(max(b.Attempted, 1)))
			}
		}
		for _, d := range bf.EndToEnd {
			v := verdict{Workload: r.Workload, Metric: d.Name, Bound: d.Bound, Current: r.EndToEnd[d.Name], Result: "unresolved"}
			var vals []float64
			for _, b := range runs {
				if x, ok := b.Metrics[d.Name]; ok {
					vals = append(vals, x)
				}
			}
			if len(vals) > 0 {
				v.Base, v.Spread = median(vals), spread(vals)
				v.Change = (v.Current - v.Base) / math.Abs(v.Base)
				if d.Better == "higher" {
					v.Change = -v.Change
				}
				floorMet := d.Name != "setup_s" || math.Abs(v.Current-v.Base) > setupFloor
				switch {
				case v.Spread > d.Bound:
				case v.Change > d.Bound && floorMet:
					v.Result = "worse"
				case v.Change < -d.Bound && floorMet:
					v.Result = "better"
				default:
					v.Result = "same"
				}
			}
			regressed = regressed || v.Result == "worse"
			verdicts = append(verdicts, v)
		}
		v := verdict{Workload: r.Workload, Metric: "error_rate", Base: worstErr, Current: r.errorRate(), Result: "same"}
		if v.Current > v.Base {
			v.Result, regressed = "worse", true
		}
		verdicts = append(verdicts, v)
	}
	return verdicts, regressed
}

func printVerdicts(w io.Writer, vs []verdict) {
	fmt.Fprintf(w, "compare: %-14s %-22s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "baseline", "current", "change", "spread", "bound", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "compare: %-14s %-22s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
			v.Workload, v.Metric, v.Base, v.Current, 100*v.Change, 100*v.Spread, 100*v.Bound, v.Result)
	}
}
