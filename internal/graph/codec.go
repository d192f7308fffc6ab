package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a small line-oriented text codec for task graphs, used
// by the command-line tools. The format is:
//
//	# comments and blank lines are ignored
//	path <n>
//	<n node weights, whitespace separated, may span lines>
//	<n-1 edge weights>
//
//	tree <n>
//	<n node weights>
//	<u> <v> <w>        (n-1 lines, one per edge)
//
//	graph <n> <m>
//	<n node weights>
//	<u> <v> <w>        (m lines)

// ErrBadFormat is returned when the text codec encounters malformed input.
var ErrBadFormat = errors.New("graph: bad text format")

type tokenReader struct {
	sc   *bufio.Scanner
	toks []string
	pos  int
	line int
}

func newTokenReader(r io.Reader) *tokenReader {
	sc := bufio.NewScanner(r)
	// The writers put a whole weight row on one line, so the token buffer
	// must hold it: ~18 bytes per float means 256 MiB covers paths of
	// ~14M nodes. (Graphs past that belong in the binary codec anyway.)
	sc.Buffer(make([]byte, 0, 64*1024), 256*1024*1024)
	return &tokenReader{sc: sc}
}

// next returns the next whitespace-separated token, skipping comments.
func (tr *tokenReader) next() (string, error) {
	for tr.pos >= len(tr.toks) {
		if !tr.sc.Scan() {
			if err := tr.sc.Err(); err != nil {
				return "", err
			}
			return "", io.EOF
		}
		tr.line++
		line := tr.sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		tr.toks = strings.Fields(line)
		tr.pos = 0
	}
	tok := tr.toks[tr.pos]
	tr.pos++
	return tok, nil
}

func (tr *tokenReader) nextInt() (int, error) {
	tok, err := tr.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(tok)
	if err != nil {
		return 0, fmt.Errorf("line %d: %q is not an integer: %w", tr.line, tok, ErrBadFormat)
	}
	return v, nil
}

func (tr *tokenReader) nextFloat() (float64, error) {
	tok, err := tr.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("line %d: %q is not a number: %w", tr.line, tok, ErrBadFormat)
	}
	return v, nil
}

// maxPrealloc caps the elements a reader allocates ahead of the tokens that
// fill them, so a header's count cannot make it allocate more than the input
// holds.
const maxPrealloc = 1 << 12

// floats reads n weights.
func (tr *tokenReader) floats(n int) ([]float64, error) {
	out := make([]float64, 0, min(n, maxPrealloc))
	for len(out) < n {
		v, err := tr.nextFloat()
		if err != nil {
			return nil, truncated(err, "weights", len(out), n)
		}
		out = append(out, v)
	}
	return out, nil
}

// truncated marks an input that ended after got of want items as
// ErrBadFormat, keeping io.EOF in the chain; other errors pass unchanged.
func truncated(err error, what string, got, want int) error {
	if !errors.Is(err, io.EOF) {
		return err
	}
	return fmt.Errorf("input ends after %d of %d %s: %w (%w)", got, want, what, ErrBadFormat, err)
}

// ReadAny parses the next graph from r, returning exactly one of a *Path,
// *Tree, or *Graph according to the header keyword.
func ReadAny(r io.Reader) (any, error) {
	tr := newTokenReader(r)
	kind, err := tr.next()
	if err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	switch kind {
	case "path":
		return readPath(tr)
	case "tree":
		return readTree(tr)
	case "graph":
		return readGraph(tr)
	default:
		return nil, fmt.Errorf("unknown graph kind %q: %w", kind, ErrBadFormat)
	}
}

// ReadPath parses a path in the text format.
func ReadPath(r io.Reader) (*Path, error) {
	tr := newTokenReader(r)
	kind, err := tr.next()
	if err != nil {
		return nil, err
	}
	if kind != "path" {
		return nil, fmt.Errorf("expected %q header, got %q: %w", "path", kind, ErrBadFormat)
	}
	return readPath(tr)
}

// ReadTree parses a tree in the text format.
func ReadTree(r io.Reader) (*Tree, error) {
	tr := newTokenReader(r)
	kind, err := tr.next()
	if err != nil {
		return nil, err
	}
	if kind != "tree" {
		return nil, fmt.Errorf("expected %q header, got %q: %w", "tree", kind, ErrBadFormat)
	}
	return readTree(tr)
}

func readPath(tr *tokenReader) (*Path, error) {
	n, err := tr.nextInt()
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("path size %d: %w", n, ErrBadFormat)
	}
	nodeW, err := tr.floats(n)
	if err != nil {
		return nil, err
	}
	edgeW, err := tr.floats(n - 1)
	if err != nil {
		return nil, err
	}
	return NewPath(nodeW, edgeW)
}

func readTree(tr *tokenReader) (*Tree, error) {
	n, err := tr.nextInt()
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("tree size %d: %w", n, ErrBadFormat)
	}
	nodeW, err := tr.floats(n)
	if err != nil {
		return nil, err
	}
	edges, err := readEdges(tr, n-1)
	if err != nil {
		return nil, err
	}
	return NewTree(nodeW, edges)
}

func readGraph(tr *tokenReader) (*Graph, error) {
	n, err := tr.nextInt()
	if err != nil {
		return nil, err
	}
	m, err := tr.nextInt()
	if err != nil {
		return nil, err
	}
	if n <= 0 || m < 0 {
		return nil, fmt.Errorf("graph size %d,%d: %w", n, m, ErrBadFormat)
	}
	nodeW, err := tr.floats(n)
	if err != nil {
		return nil, err
	}
	edges, err := readEdges(tr, m)
	if err != nil {
		return nil, err
	}
	return NewGraph(nodeW, edges)
}

// readEdges reads m "u v w" edge lines.
func readEdges(tr *tokenReader, m int) ([]Edge, error) {
	edges := make([]Edge, 0, min(m, maxPrealloc))
	for len(edges) < m {
		u, err := tr.nextInt()
		if err != nil {
			return nil, truncated(err, "edges", len(edges), m)
		}
		v, err := tr.nextInt()
		if err != nil {
			return nil, truncated(err, "edges", len(edges), m)
		}
		w, err := tr.nextFloat()
		if err != nil {
			return nil, truncated(err, "edges", len(edges), m)
		}
		edges = append(edges, Edge{U: u, V: v, W: w})
	}
	return edges, nil
}

// WritePath writes p in the text format.
func WritePath(w io.Writer, p *Path) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "path %d\n", p.Len())
	writeFloats(bw, p.NodeW)
	writeFloats(bw, p.EdgeW)
	return bw.Flush()
}

// WriteTree writes t in the text format.
func WriteTree(w io.Writer, t *Tree) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "tree %d\n", t.Len())
	writeFloats(bw, t.NodeW)
	for _, e := range t.Edges {
		fmt.Fprintf(bw, "%d %d %s\n", e.U, e.V, formatWeight(e.W))
	}
	return bw.Flush()
}

// WriteGraph writes g in the text format.
func WriteGraph(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %d %d\n", g.Len(), len(g.Edges))
	writeFloats(bw, g.NodeW)
	for _, e := range g.Edges {
		fmt.Fprintf(bw, "%d %d %s\n", e.U, e.V, formatWeight(e.W))
	}
	return bw.Flush()
}

func writeFloats(w io.Writer, ws []float64) {
	for i, v := range ws {
		if i > 0 {
			io.WriteString(w, " ")
		}
		io.WriteString(w, formatWeight(v))
	}
	io.WriteString(w, "\n")
}

func formatWeight(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
