package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at about 50 ops against a daemon built from
// this checkout, traced, and checks that every answer passed and every
// metric BENCHMARK.json names was produced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs partitiond")
	}
	const ops = 50
	cfg, err := setup(context.Background(), 5, 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			cfg.seconds = ops / s.opsPerSecond
			rep, err := runWorkload(context.Background(), cfg, s)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Attempted != ops || rep.Failed != 0 {
				t.Fatalf("%d of %d ops failed: %v", rep.Failed, rep.Attempted, rep.Errors)
			}
			if rep.Checked != ops {
				t.Errorf("post-run check covered %d of %d ops", rep.Checked, ops)
			}
			for _, m := range []string{"throughput_rps", "p50_ms", "daemon_cpu_ms_per_op", "peak_rss_mb", "setup_s"} {
				if v, ok := rep.EndToEnd[m]; !ok || !(v > 0) {
					t.Errorf("end-to-end %s = %v (present %t)", m, v, ok)
				}
			}
			if _, err := resultLine(rep, cfg.bench, true); err != nil {
				t.Error(err)
			}
			for _, d := range cfg.bench.PerLayer {
				if d.Unit == "ms" && rep.Layers[d.Name] == 0 {
					t.Errorf("per-layer %s not measured", d.Name)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.out, s.name+"-seed5.trace.json")); err != nil {
				t.Error(err)
			}
		})
	}
}
