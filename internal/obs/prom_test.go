package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPromWriter(t *testing.T) {
	// observed builds a histogram over bounds holding the given observations.
	observed := func(bounds []float64, vs ...float64) HistogramSnapshot {
		h := NewHistogram(bounds)
		for _, v := range vs {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	const id = "0123456789abcdef0123456789abcdef"
	at := time.UnixMilli(1_700_000_000_123)

	tests := []struct {
		name  string
		write func(p *PromWriter)
		want  string
	}{
		{
			name:  "family header",
			write: func(p *PromWriter) { p.Family("jobs_total", "gauge", "Jobs by state.") },
			want:  "# HELP jobs_total Jobs by state.\n# TYPE jobs_total gauge\n",
		},
		{
			name:  "sample without labels",
			write: func(p *PromWriter) { p.Sample("up", 1) },
			want:  "up 1\n",
		},
		{
			name:  "labels in given order",
			write: func(p *PromWriter) { p.Sample("lookups_total", uint64(7), "tier", "local", "result", "hit") },
			want:  `lookups_total{tier="local",result="hit"} 7` + "\n",
		},
		{
			name:  "label value escaping",
			write: func(p *PromWriter) { p.Sample("x", 1, "v", "a\"b\\c\nd") },
			want:  `x{v="a\"b\\c\nd"} 1` + "\n",
		},
		{
			name:  "max uint64",
			write: func(p *PromWriter) { p.Sample("x", uint64(math.MaxUint64)) },
			want:  "x 18446744073709551615\n",
		},
		{
			name:  "negative int",
			write: func(p *PromWriter) { p.Sample("x", int64(-3)) },
			want:  "x -3\n",
		},
		{
			name:  "float 0.1",
			write: func(p *PromWriter) { p.Sample("x", 0.1) },
			want:  "x 0.1\n",
		},
		{
			name:  "float 1e21",
			write: func(p *PromWriter) { p.Sample("x", 1e21) },
			want:  "x 1e+21\n",
		},
		{
			name:  "float +Inf",
			write: func(p *PromWriter) { p.Sample("x", math.Inf(1)) },
			want:  "x +Inf\n",
		},
		{
			name: "histogram with labels",
			write: func(p *PromWriter) {
				p.Histogram("x_seconds", observed([]float64{0.001, 0.01}, 0.0005, 0.005, 3), nil, "solver", "bandwidth")
			},
			want: `x_seconds_bucket{solver="bandwidth",le="0.001"} 1
x_seconds_bucket{solver="bandwidth",le="0.01"} 2
x_seconds_bucket{solver="bandwidth",le="+Inf"} 3
x_seconds_sum{solver="bandwidth"} 3.0055
x_seconds_count{solver="bandwidth"} 3
`,
		},
		{
			name: "histogram without labels",
			write: func(p *PromWriter) {
				p.Histogram("y_seconds", observed([]float64{1}, 0.5), nil)
			},
			want: `y_seconds_bucket{le="1"} 1
y_seconds_bucket{le="+Inf"} 1
y_seconds_sum 0.5
y_seconds_count 1
`,
		},
		{
			name: "histogram exemplars",
			write: func(p *PromWriter) {
				p.Histogram("z_seconds", observed([]float64{0.001, 0.01}, 0.005, 2), []Exemplar{
					{}, {TraceID: id, Value: 0.005, Time: at}, {TraceID: id, Value: 2, Time: at},
				}, "route", "/v1/solve")
			},
			want: `z_seconds_bucket{route="/v1/solve",le="0.001"} 0
z_seconds_bucket{route="/v1/solve",le="0.01"} 1 # {trace_id="` + id + `"} 0.005 1700000000.123
z_seconds_bucket{route="/v1/solve",le="+Inf"} 2 # {trace_id="` + id + `"} 2 1700000000.123
z_seconds_sum{route="/v1/solve"} 2.005
z_seconds_count{route="/v1/solve"} 2
`,
		},
		{
			name: "histogram short exemplar slice",
			write: func(p *PromWriter) {
				p.Histogram("z_seconds", observed([]float64{1}, 0.5), []Exemplar{{}})
			},
			want: `z_seconds_bucket{le="1"} 1
z_seconds_bucket{le="+Inf"} 1
z_seconds_sum 0.5
z_seconds_count 1
`,
		},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var sb strings.Builder
			tt.write(NewPromWriter(&sb))
			if got := sb.String(); got != tt.want {
				t.Errorf("got:\n%s\nwant:\n%s", got, tt.want)
			}
		})
	}
}
