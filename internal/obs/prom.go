package obs

import (
	"fmt"
	"io"
	"strconv"
)

// PromWriter renders the Prometheus text exposition format (version 0.0.4),
// with OpenMetrics exemplars on histogram buckets. It is the one place that
// knows the format: a family header, a sample, and a histogram. Write
// errors are not reported; a failed scrape shows on the caller's connection.
type PromWriter struct {
	w   io.Writer
	buf []byte
}

// NewPromWriter returns a writer rendering to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Family writes a metric family's # HELP and # TYPE lines. typ is the
// Prometheus type: "counter", "gauge" or "histogram".
func (p *PromWriter) Family(name, typ, help string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line. labels are key/value pairs in render
// order; values are Go-quoted, which escapes `"`, `\` and newline the way
// the format asks. value renders as %v: integers in decimal, floats as %g.
func (p *PromWriter) Sample(name string, value any, labels ...string) {
	p.line(name, value, labels, Exemplar{})
}

// Histogram writes a snapshot as cumulative name_bucket lines with an le
// label, then name_sum and name_count. exemplars[i] annotates bucket i (the
// entry past the last bound annotates +Inf); entries with an empty TraceID,
// and a nil or short slice, add nothing.
func (p *PromWriter) Histogram(name string, s HistogramSnapshot, exemplars []Exemplar, labels ...string) {
	withLe := append(labels[:len(labels):len(labels)], "le", "")
	var cum uint64
	for i, n := range s.Counts {
		cum += n
		le := "+Inf"
		if i < len(s.Bounds) {
			le = strconv.FormatFloat(s.Bounds[i], 'g', -1, 64)
		}
		withLe[len(withLe)-1] = le
		var ex Exemplar
		if i < len(exemplars) {
			ex = exemplars[i]
		}
		p.line(name+"_bucket", cum, withLe, ex)
	}
	p.line(name+"_sum", s.Sum, labels, Exemplar{})
	p.line(name+"_count", s.Count, labels, Exemplar{})
}

// line renders name{labels} value, the exemplar suffix when ex has a trace,
// and the newline, then writes the line in one call.
func (p *PromWriter) line(name string, value any, labels []string, ex Exemplar) {
	b := append(p.buf[:0], name...)
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = append(b, labels[i]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, labels[i+1])
	}
	if len(labels) > 1 {
		b = append(b, '}')
	}
	b = fmt.Appendf(b, " %v", value)
	if ex.TraceID != "" {
		b = fmt.Appendf(b, " # {trace_id=%q} %v %.3f", ex.TraceID, ex.Value, float64(ex.Time.UnixMilli())/1e3)
	}
	b = append(b, '\n')
	p.buf = b
	p.w.Write(b)
}
