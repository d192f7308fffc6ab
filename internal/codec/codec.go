// Package codec implements the compact binary wire format for task graphs —
// the zero-copy alternative to the JSON envelope that partitiond negotiates
// via Content-Type (see internal/server). The JSON decode of a large path
// dominates the whole uncached solve; this format decodes with a handful of
// allocations (zero per element). graph.FillPath, FillTree and FillGraph
// copy, validate and fingerprint each weight array in one pass over its
// bytes; tree and graph edges are decoded first, then checked and hashed.
//
// Layout (all integers little-endian):
//
//	offset 0   magic "PGB1" (4 bytes)
//	offset 4   version     (1 byte, currently 1)
//	offset 5   kind        (1 byte: 1 = path, 2 = tree, 3 = graph)
//	then       n           (uvarint node count)
//	then       m           (uvarint edge count)
//	then       n × float64 node weights
//	path:      m × float64 edge weights                     (m = n−1)
//	tree/graph: m × (uint32 u, uint32 v, float64 w)          (tree: m = n−1)
//
// The counts are the length prefixes: together with the fixed-width element
// sizes they declare the exact payload length, so a decoder rejects
// truncated or oversized input before allocating any arrays. Weights travel
// as IEEE-754 bits; encode(decode(b)) is byte-identical and
// decode(encode(g)) compares equal for every valid graph.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
)

// ContentType is the media type the serving layer negotiates this format
// under.
const ContentType = "application/x-partition-bin"

// Version is the current format version; decoders accept only this value.
const Version = 1

// Kind bytes of the graph kinds.
const (
	KindPath  byte = 1
	KindTree  byte = 2
	KindGraph byte = 3
)

// magic identifies the format: "Partition Graph Binary v1".
var magic = [4]byte{'P', 'G', 'B', '1'}

// headerLen is magic + version + kind.
const headerLen = 6

// Sentinel errors. All decoding failures wrap one of these; malformed input
// of any shape returns an error and never panics (FuzzCodec enforces this).
var (
	// ErrBadMagic is returned when the input does not start with the format
	// magic.
	ErrBadMagic = errors.New("codec: bad magic")
	// ErrBadVersion is returned for unsupported format versions.
	ErrBadVersion = errors.New("codec: unsupported version")
	// ErrBadKind is returned for unknown graph kind bytes.
	ErrBadKind = errors.New("codec: unknown graph kind")
	// ErrTruncated is returned when the input ends before the declared
	// payload.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrTooLarge is returned when a declared count exceeds the decoder's
	// limit — checked before any array is allocated.
	ErrTooLarge = errors.New("codec: graph exceeds size limit")
	// ErrCorrupt is returned for structurally inconsistent declarations
	// (edge count vs kind, endpoint overflow).
	ErrCorrupt = errors.New("codec: corrupt input")
)

// Sniff reports whether b begins with the binary-format magic — the
// auto-detection hook for CLIs that accept both text and binary input.
func Sniff(b []byte) bool {
	return len(b) >= 4 && b[0] == magic[0] && b[1] == magic[1] && b[2] == magic[2] && b[3] == magic[3]
}

// EncodedSize returns the exact number of bytes Append will produce for g,
// or 0 for unsupported types.
func EncodedSize(g any) int {
	switch v := g.(type) {
	case *graph.Path:
		return headerLen + uvarintLen(uint64(len(v.NodeW))) + uvarintLen(uint64(len(v.EdgeW))) +
			8*len(v.NodeW) + 8*len(v.EdgeW)
	case *graph.Tree:
		return headerLen + uvarintLen(uint64(len(v.NodeW))) + uvarintLen(uint64(len(v.Edges))) +
			8*len(v.NodeW) + 16*len(v.Edges)
	case *graph.Graph:
		return headerLen + uvarintLen(uint64(len(v.NodeW))) + uvarintLen(uint64(len(v.Edges))) +
			8*len(v.NodeW) + 16*len(v.Edges)
	default:
		return 0
	}
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Append encodes g — a *graph.Path, *graph.Tree, or *graph.Graph — appending
// the bytes to dst and returning the extended slice.
func Append(dst []byte, g any) ([]byte, error) {
	switch v := g.(type) {
	case *graph.Path:
		dst = appendHeader(dst, KindPath, len(v.NodeW), len(v.EdgeW))
		dst = appendFloats(dst, v.NodeW)
		dst = appendFloats(dst, v.EdgeW)
		return dst, nil
	case *graph.Tree:
		return appendEdgeGraph(dst, KindTree, v.NodeW, v.Edges)
	case *graph.Graph:
		return appendEdgeGraph(dst, KindGraph, v.NodeW, v.Edges)
	default:
		return nil, fmt.Errorf("codec: cannot encode %T", g)
	}
}

func appendHeader(dst []byte, kind byte, n, m int) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, Version, kind)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(m))
	return dst
}

func appendFloats(dst []byte, ws []float64) []byte {
	for _, w := range ws {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w))
	}
	return dst
}

func appendEdgeGraph(dst []byte, kind byte, nodeW []float64, edges []graph.Edge) ([]byte, error) {
	for i, e := range edges {
		if e.U < 0 || e.V < 0 || uint64(e.U) > math.MaxUint32 || uint64(e.V) > math.MaxUint32 {
			return nil, fmt.Errorf("codec: edge %d endpoints (%d,%d) overflow uint32: %w", i, e.U, e.V, ErrCorrupt)
		}
	}
	dst = appendHeader(dst, kind, len(nodeW), len(edges))
	dst = appendFloats(dst, nodeW)
	for _, e := range edges {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.U))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.V))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.W))
	}
	return dst, nil
}

// Encode writes g's binary encoding to w.
func Encode(w io.Writer, g any) error {
	buf, err := Append(make([]byte, 0, EncodedSize(g)), g)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Options tune a decode.
type Options struct {
	// MaxNodes rejects graphs declaring more vertices (ErrTooLarge) before
	// any allocation happens; 0 means unlimited.
	MaxNodes int
	// Store, when set, is consulted for paths and trees as graph.Store
	// describes: the fingerprint is folded from the frame's bytes first,
	// and a hit returns the stored graph without decoding the arrays.
	Store graph.Store
}

// Decode decodes one graph from the front of data, returning the graph, its
// stable fingerprint (identical to graph.Fingerprint, computed during the
// decode), and the bytes remaining after the graph. The returned graph is
// validated and owns its arrays: it never aliases data. With opt.Store set,
// a path or tree may instead be the store's frozen graph.
func Decode(data []byte, opt Options) (g any, fp uint64, rest []byte, err error) {
	if len(data) < headerLen {
		if !Sniff(data) && len(data) >= 4 {
			return nil, 0, data, ErrBadMagic
		}
		return nil, 0, data, ErrTruncated
	}
	if !Sniff(data) {
		return nil, 0, data, ErrBadMagic
	}
	if data[4] != Version {
		return nil, 0, data, fmt.Errorf("version %d: %w", data[4], ErrBadVersion)
	}
	kind := data[5]
	b := data[headerLen:]
	n64, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, 0, data, ErrTruncated
	}
	b = b[sz:]
	m64, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, 0, data, ErrTruncated
	}
	b = b[sz:]
	// Bounds before allocation: the declared counts must be plausible for
	// the input length and under the caller's node limit. maxInt32 caps the
	// counts so the byte-size arithmetic below cannot overflow.
	const maxInt32 = math.MaxInt32
	if n64 > maxInt32 || m64 > maxInt32 {
		return nil, 0, data, ErrTooLarge
	}
	n, m := int(n64), int(m64)
	if opt.MaxNodes > 0 && n > opt.MaxNodes {
		return nil, 0, data, fmt.Errorf("%d nodes > limit %d: %w", n, opt.MaxNodes, ErrTooLarge)
	}
	elemSize := 8 // path edges: one float64
	switch kind {
	case KindPath, KindTree:
		if n == 0 || m != n-1 {
			return nil, 0, data, fmt.Errorf("kind %d with %d nodes, %d edges: %w", kind, n, m, ErrCorrupt)
		}
	case KindGraph:
		if n == 0 {
			return nil, 0, data, fmt.Errorf("graph with 0 nodes: %w", ErrCorrupt)
		}
	default:
		return nil, 0, data, fmt.Errorf("kind %d: %w", kind, ErrBadKind)
	}
	if kind != KindPath {
		elemSize = 16 // (u, v, w)
	}
	need := 8*n + elemSize*m
	if len(b) < need {
		return nil, 0, data, fmt.Errorf("declared %d payload bytes, have %d: %w", need, len(b), ErrTruncated)
	}
	rest = b[need:]
	nodeW, edges := b[:8*n], b[8*n:need]
	store := opt.Store
	if kind == KindGraph {
		store = nil
	}
	if store != nil {
		fp = frameFingerprint(kind, nodeW, edges)
		if g := store.Get(fp); g != nil {
			return g, fp, rest, nil
		}
	}
	switch kind {
	case KindPath:
		g, fp, err = graph.FillPath(nodeW, edges)
	case KindTree:
		g, fp, err = graph.FillTree(nodeW, decodeEdges(make([]graph.Edge, m), edges))
	default: // KindGraph
		g, fp, err = graph.FillGraph(nodeW, decodeEdges(make([]graph.Edge, m), edges))
	}
	if err != nil {
		return nil, 0, data, err
	}
	if store != nil {
		store.Put(fp, g)
	}
	return g, fp, rest, nil
}

// frameFingerprint is the fingerprint of the path or tree a frame's arrays
// encode, folded from their bytes without decoding them: for a valid graph
// it equals the one FillPath or FillTree computes.
func frameFingerprint(kind byte, nodeW, edges []byte) uint64 {
	h := graph.NewPathHasher()
	if kind == KindTree {
		h = graph.NewTreeHasher()
	}
	h.Word(uint64(len(nodeW) / 8))
	h.WeightBytes(nodeW)
	if kind == KindTree {
		h.Word(uint64(len(edges) / 16))
		h.EdgeRecords(edges)
	} else {
		h.Word(uint64(len(edges) / 8))
		h.WeightBytes(edges)
	}
	return h.Sum()
}

// decodeEdges fills out from the front of b.
func decodeEdges(out []graph.Edge, b []byte) []graph.Edge {
	for i := range out {
		u := binary.LittleEndian.Uint32(b[16*i:])
		v := binary.LittleEndian.Uint32(b[16*i+4:])
		w := math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:]))
		out[i] = graph.Edge{U: int(u), V: int(v), W: w}
	}
	return out
}
