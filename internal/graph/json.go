package graph

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"

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
	g, _, err := ScanJSON(sc, 0)
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

// ScanJSON decodes the graph envelope at the scanner's position and leaves
// the scanner after it, returning the graph with its fingerprint. A null
// yields a nil graph and no error; what an absent graph means is the
// caller's call. With maxNodes > 0, a node-weight array longer than
// maxNodes stops decoding with ErrTooManyNodes, before the rest of the
// graph is read. Any other error leaves the scanner after the envelope (or
// in its syntax-error state), so an enclosing document can go on.
func ScanJSON(sc *jsonscan.Scanner, maxNodes int) (any, uint64, error) {
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
	nodeW := weightBytes(st.nodeW[:nNodes])
	switch kind {
	case "path":
		return FillPath(nodeW, weightBytes(st.edgeW[:nEdgeW]))
	case "tree":
		return FillTree(nodeW, append([]Edge(nil), st.edges[:nEdge]...))
	case "graph":
		return FillGraph(nodeW, append([]Edge(nil), st.edges[:nEdge]...))
	default:
		return nil, 0, fmt.Errorf("unknown graph kind %q: %w", kind, ErrBadFormat)
	}
}

// weightBytes returns ws as the little-endian float64 bytes the Fill
// constructors read: a view of ws on a little-endian host, a copy elsewhere.
func weightBytes(ws []float64) []byte {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ws))), 8*len(ws))
	if binary.NativeEndian.Uint16([]byte{1, 0}) == 1 {
		return b
	}
	out := make([]byte, 0, len(b))
	for _, w := range ws {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(w))
	}
	return out
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
