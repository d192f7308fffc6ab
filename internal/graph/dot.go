package graph

import (
	"fmt"
	"io"
	"strings"
)

// DOT export for visual inspection of partitions. Cut edges are drawn dashed
// and red; components are not clustered (Graphviz lays trees out well enough
// without clusters).

// PathDOT renders the path with the given cut highlighted.
func PathDOT(w io.Writer, p *Path, cut []int) error {
	t := p.AsTree()
	return TreeDOT(w, t, cut)
}

// TreeDOT renders the tree with the given cut highlighted. The cut may be
// nil. Invalid cut indices are ignored rather than rejected, since DOT output
// is diagnostic.
func TreeDOT(w io.Writer, t *Tree, cut []int) error {
	inCut := make(map[int]bool, len(cut))
	for _, e := range cut {
		inCut[e] = true
	}
	var b strings.Builder
	b.WriteString("graph task {\n  node [shape=circle];\n")
	for v, wt := range t.NodeW {
		fmt.Fprintf(&b, "  n%d [label=\"%d\\n%s\"];\n", v, v, formatWeight(wt))
	}
	for i, e := range t.Edges {
		attr := ""
		if inCut[i] {
			attr = ", style=dashed, color=red"
		}
		fmt.Fprintf(&b, "  n%d -- n%d [label=\"%s\"%s];\n", e.U, e.V, formatWeight(e.W), attr)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
