package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"slices"
	"sync"

	"repro/internal/jsonscan"
)

// JSON codec for task graphs, used for interchange with external tooling.
// The envelope carries an explicit kind so files are self-describing:
//
//	{"kind":"path","nodeWeights":[1,2,3],"edgeWeights":[10,20]}
//	{"kind":"tree","nodeWeights":[1,2],"edges":[{"u":0,"v":1,"w":5}]}
//	{"kind":"graph","nodeWeights":[...],"edges":[...]}
//
// Encoding goes through encoding/json. Decoding is one pass of
// internal/jsonscan over the bytes, straight into the graph's arrays, and
// accepts exactly what json.Unmarshal into jsonGraph accepts, with the same
// values (FuzzReadJSON holds the two together).

type jsonEdge struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w"`
}

type jsonGraph struct {
	Kind        string     `json:"kind"`
	NodeWeights []float64  `json:"nodeWeights"`
	EdgeWeights []float64  `json:"edgeWeights,omitempty"`
	Edges       []jsonEdge `json:"edges,omitempty"`
}

// ErrTooManyNodes is returned by ScanJSON when a node-weight array holds
// more elements than the caller's limit. Decoding stops at the first
// element over the limit.
var ErrTooManyNodes = errors.New("graph: node count exceeds the limit")

func toJSONEdges(es []Edge) []jsonEdge {
	out := make([]jsonEdge, len(es))
	for i, e := range es {
		out[i] = jsonEdge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// WriteJSON encodes a *Path, *Tree, or *Graph.
func WriteJSON(w io.Writer, g any) error {
	var env jsonGraph
	switch v := g.(type) {
	case *Path:
		env = jsonGraph{Kind: "path", NodeWeights: v.NodeW, EdgeWeights: v.EdgeW}
	case *Tree:
		env = jsonGraph{Kind: "tree", NodeWeights: v.NodeW, Edges: toJSONEdges(v.Edges)}
	case *Graph:
		env = jsonGraph{Kind: "graph", NodeWeights: v.NodeW, Edges: toJSONEdges(v.Edges)}
	default:
		return fmt.Errorf("cannot encode %T: %w", g, ErrBadFormat)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&env)
}

// ReadJSON decodes a graph envelope, returning exactly one of *Path, *Tree,
// or *Graph, validated. It reads r to the end: only whitespace may follow
// the envelope.
func ReadJSON(r io.Reader) (any, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("reading graph JSON: %w", err)
	}
	return DecodeJSON(data)
}

// DecodeJSON is ReadJSON over a document in memory. The graph does not
// alias data.
func DecodeJSON(data []byte) (any, error) {
	sc := jsonscan.NewScanner(data)
	g, _, err := ScanJSON(sc, 0, nil)
	if serr := sc.End(); serr != nil {
		return nil, fmt.Errorf("decoding graph JSON: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	if g == nil {
		// null, which json.Unmarshal takes as an empty envelope.
		return nil, fmt.Errorf("unknown graph kind %q: %w", "", ErrBadFormat)
	}
	return g, nil
}

// Field positions in graphFields and edgeFields.
const (
	fieldKind = iota
	fieldNodeWeights
	fieldEdgeWeights
	fieldEdges
)

var (
	graphFields = jsonscan.Fields{"kind", "nodeWeights", "edgeWeights", "edges"}
	edgeFields  = jsonscan.Fields{"u", "v", "w"}
)

// jsonScratch holds an envelope's arrays while it is decoded; the Fill
// constructors copy them into the graph's exact-size arrays. Each slice's
// length counts the elements earlier occurrences of its key left behind
// (see scanArray).
type jsonScratch struct {
	nodeW, edgeW []float64
	edges        []Edge
}

// maxPooledScratch bounds, in 8-byte words, the scratch returned to the
// pool, so one huge graph does not pin its arrays.
const maxPooledScratch = 1 << 21

var scratchPool = sync.Pool{New: func() any { return new(jsonScratch) }}

// Store is a table of frozen graphs keyed by fingerprint that the decoders
// (ScanJSON, and Decode in internal/codec) consult before they build a path
// or a tree. A decoder fingerprints the graph from what it was sent; on a
// hit it returns the stored graph, with no fill, no graph-sized allocation
// and no check, and on a miss it builds and checks the graph as it would
// without a store and offers it to Put. A fingerprint names a graph up to
// the sign of its zero weights (see Hasher), so a hit may carry +0 where
// the request sent -0, as a result cached under that fingerprint does; and
// like that cache, the store trusts the 64-bit fingerprint.
//
// A JSON envelope is also looked up by its text before it is parsed at all
// (ScanJSON). The store keeps a TextEntry for each envelope it recorded,
// under a hash of the envelope's first textPrefix bytes, and returns that
// entry's graph for a document that holds the same envelope: the next
// Len bytes hash to the entry's Hash. Decoding is a function of the
// envelope's bytes alone, so a byte-identical envelope decodes to that
// graph again, and on a text hit ScanJSON skips its numbers instead of
// parsing them. Envelopes that share their first textPrefix bytes share an
// entry, the last one recorded. The text index trusts 64-bit hashes too,
// but ones seeded per process, so colliding envelopes cannot be made
// without the seed.
type Store interface {
	// Get returns the frozen *Path or *Tree stored under fp, or nil.
	Get(fp uint64) any
	// Put offers g, a *Path or *Tree just built and checked, whose
	// fingerprint is fp. The store may freeze g and keep it.
	Put(fp uint64, g any)
	// GetText returns the text entry recorded under prefix and the graph
	// stored under its fingerprint, if the entry matches doc, the document
	// from the next value on, at depth (see TextEntry.Matches); otherwise
	// it returns a nil graph.
	GetText(prefix uint64, doc []byte, depth int) (any, TextEntry)
	// PutText records e under e.Prefix, replacing what was there.
	PutText(e TextEntry)
}

// textPrefix is how many of an envelope's first bytes key the text index.
// Shorter envelopes are not looked up by their text; a graph worth
// skipping the parse of is much longer.
const textPrefix = 64

// TextEntry records that an envelope decoded to the path or tree whose
// fingerprint is FP. The hashes are under this process's seed.
type TextEntry struct {
	// Prefix is the hash of the envelope's first textPrefix bytes, which
	// keys the entry.
	Prefix uint64
	// Hash is the hash of the envelope's Len bytes.
	Hash uint64
	Len  int
	// Depth is the scanner depth the envelope was parsed at. Reading it
	// there stayed within jsonscan's nesting limit, so reading it at any
	// shallower depth does too.
	Depth int
	FP    uint64
}

// Matches reports whether doc, the document from the next value on,
// starts with the envelope e records, and whether reading it at depth
// stays within the nesting limit.
func (e TextEntry) Matches(doc []byte, depth int) bool {
	return len(doc) >= e.Len && depth <= e.Depth && maphash.Bytes(textSeed, doc[:e.Len]) == e.Hash
}

var textSeed = maphash.MakeSeed()

// ScanJSON decodes the graph envelope at the scanner's position and leaves
// the scanner after it, returning the graph with its fingerprint. A null
// yields a nil graph and no error; what an absent graph means is the
// caller's call. With maxNodes > 0, a node-weight array longer than
// maxNodes stops decoding with ErrTooManyNodes, before the rest of the
// graph is read. Any other error leaves the scanner after the envelope (or
// in its syntax-error state), so an enclosing document can go on. A
// non-nil store is consulted for paths and trees as Store describes: first
// by the envelope's text, then by the fingerprint of what it parsed.
func ScanJSON(sc *jsonscan.Scanner, maxNodes int, store Store) (any, uint64, error) {
	if store == nil || sc.Err() != nil {
		return scanJSON(sc, maxNodes, store)
	}
	start, doc := sc.Rest()
	depth := sc.Depth()
	var prefix uint64
	if len(doc) >= textPrefix {
		prefix = maphash.Bytes(textSeed, doc[:textPrefix])
		if g, e := store.GetText(prefix, doc, depth); g != nil {
			if maxNodes <= 0 || nodeCount(g) <= maxNodes {
				sc.SkipTo(start + e.Len)
				return g, e.FP, nil
			}
		}
	}
	g, fp, err := scanJSON(sc, maxNodes, store)
	if err != nil {
		return g, fp, err
	}
	switch g.(type) {
	case *Path, *Tree:
		// Rest skipped the whitespace after the envelope, an object,
		// which ends at its last '}'.
		end, _ := sc.Rest()
		if n := bytes.LastIndexByte(doc[:end-start], '}') + 1; n >= textPrefix {
			store.PutText(TextEntry{Prefix: prefix, Hash: maphash.Bytes(textSeed, doc[:n]), Len: n, Depth: depth, FP: fp})
		}
	}
	return g, fp, err
}

// nodeCount returns the node count of a stored graph, a *Path or *Tree.
func nodeCount(g any) int {
	if p, ok := g.(*Path); ok {
		return p.Len()
	}
	return g.(*Tree).Len()
}

// scanJSON is ScanJSON after the text lookup: it parses the envelope.
func scanJSON(sc *jsonscan.Scanner, maxNodes int, store Store) (any, uint64, error) {
	ok, err := sc.Object()
	if !ok {
		if err != nil {
			return nil, 0, fmt.Errorf("decoding graph JSON: %w", err)
		}
		return nil, 0, nil
	}
	st := scratchPool.Get().(*jsonScratch)
	defer st.release()
	var (
		kind                  string
		nNodes, nEdgeW, nEdge int
		first                 error
	)
	for sc.NextKey() {
		var err error
		switch graphFields.Index(sc.Key()) {
		case fieldKind:
			err = sc.String(&kind, "path", "tree", "graph")
		case fieldNodeWeights:
			nNodes, err = scanArray(sc, &st.nodeW, maxNodes, (*jsonscan.Scanner).Float64)
			if errors.Is(err, ErrTooManyNodes) {
				return nil, 0, err
			}
		case fieldEdgeWeights:
			nEdgeW, err = scanArray(sc, &st.edgeW, 0, (*jsonscan.Scanner).Float64)
		case fieldEdges:
			nEdge, err = scanArray(sc, &st.edges, 0, scanEdge)
		default:
			sc.Skip()
		}
		if first == nil {
			first = err
		}
	}
	if first == nil {
		first = sc.Err()
	}
	if first != nil {
		return nil, 0, fmt.Errorf("decoding graph JSON: %w", first)
	}
	nodeW, edgeW, edges := st.nodeW[:nNodes], st.edgeW[:nEdgeW], st.edges[:nEdge]
	var (
		g  any
		fp uint64
	)
	if store != nil && (kind == "path" || kind == "tree") {
		if kind == "path" {
			fp = fingerprintPath(nodeW, edgeW)
		} else {
			fp = fingerprintTree(nodeW, edges)
		}
		if g := store.Get(fp); g != nil {
			return g, fp, nil
		}
	}
	switch kind {
	case "path":
		g, fp, err = FillPath(weightBytes(nodeW), weightBytes(edgeW))
	case "tree":
		g, fp, err = FillTree(weightBytes(nodeW), append([]Edge(nil), edges...))
	case "graph":
		return FillGraph(weightBytes(nodeW), append([]Edge(nil), edges...))
	default:
		return nil, 0, fmt.Errorf("unknown graph kind %q: %w", kind, ErrBadFormat)
	}
	if err == nil && store != nil {
		store.Put(fp, g)
	}
	return g, fp, err
}

// release empties the scratch and returns it to the pool.
func (st *jsonScratch) release() {
	if cap(st.nodeW)+cap(st.edgeW)+2*cap(st.edges) > maxPooledScratch {
		return
	}
	st.nodeW, st.edgeW, st.edges = st.nodeW[:0], st.edgeW[:0], st.edges[:0]
	scratchPool.Put(st)
}

// scanArray decodes an array into *col the way encoding/json decodes into a
// slice field that already holds *col: element i is decoded over the
// earlier value (so a null element keeps it), and a repeated key therefore
// reads back what an earlier occurrence left. len(*col) counts those earlier
// elements; the array's own length is returned. A null or empty array
// empties *col, as it replaces the field's slice. limit > 0 stops at
// element limit+1 with ErrTooManyNodes.
func scanArray[T any](sc *jsonscan.Scanner, col *[]T, limit int, elem func(*jsonscan.Scanner, *T) error) (int, error) {
	ok, err := sc.Array()
	if !ok {
		if err == nil {
			*col = (*col)[:0]
		}
		return 0, err
	}
	s := *col
	n := 0
	var first error
	for sc.NextElem() {
		if limit > 0 && n == limit {
			return n, fmt.Errorf("more than %d nodes: %w", limit, ErrTooManyNodes)
		}
		if n == len(s) {
			if n == cap(s) {
				// Doubling from 512 keeps a cold scratch to a few
				// allocations per array.
				s = slices.Grow(s, max(n, 512))
			}
			var zero T
			s = append(s, zero)
		}
		if err := elem(sc, &s[n]); err != nil && first == nil {
			first = err
		}
		n++
	}
	if n == 0 {
		s = s[:0]
	}
	*col = s
	return n, first
}

// scanEdge decodes one {"u","v","w"} edge object over *e.
func scanEdge(sc *jsonscan.Scanner, e *Edge) error {
	ok, err := sc.Object()
	if !ok {
		return err
	}
	var first error
	for sc.NextKey() {
		var err error
		switch edgeFields.Index(sc.Key()) {
		case 0:
			err = sc.Int(&e.U)
		case 1:
			err = sc.Int(&e.V)
		case 2:
			err = sc.Float64(&e.W)
		default:
			sc.Skip()
		}
		if first == nil {
			first = err
		}
	}
	return first
}
