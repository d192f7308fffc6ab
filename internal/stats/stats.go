// Package stats provides the tabular-output helpers used by the experiment
// harness: aligned text tables and CSV output.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table renders aligned columns of strings.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes headers and rows as comma-separated values; cells
// containing commas or quotes are quoted.
func WriteCSV(w io.Writer, headers []string, rows [][]string) error {
	var b strings.Builder
	writeLine := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeLine(headers)
	for _, r := range rows {
		writeLine(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
