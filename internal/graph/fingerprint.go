package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"
)

// Stable 64-bit fingerprints over task graphs, used as cache keys by the
// serving layer (internal/server) and printed by cmd/partition -stats for
// debugging. The fingerprint is XXH64 (seed 0) over a canonical stream of
// little-endian 64-bit words:
//
//	kind tag | vertex count | vertex weights | edge count | edges
//
// with float64 weights hashed by their IEEE-754 bit patterns (negative zero
// normalized to zero) and edge endpoints in declaration order. Edge order is
// significant — cuts index into the edge slice, so two trees with the same
// shape but re-ordered edge lists are different inputs and hash differently.
// The encoding is independent of platform word size, byte order and map
// iteration order, so fingerprints are stable across processes and
// platforms. They changed once, when the byte-serial FNV-1a hash over the
// same stream gave way to XXH64's four word-parallel lanes; a node of one
// release and a node of the other therefore disagree on cache keys and
// cluster owners.

// XXH64 primes.
const (
	xxPrime1 uint64 = 0x9E3779B185EBCA87
	xxPrime2 uint64 = 0xC2B2AE3D27D4EB4F
	xxPrime3 uint64 = 0x165667B19E3779F9
	xxPrime4 uint64 = 0x85EBCA77C2B2AE63
	xxPrime5 uint64 = 0x27D4EB2F165667C5
)

// Kind tags keep a path from colliding with its single-chain tree rendering.
const (
	fpTagPath  uint64 = 0x70617468 // "path"
	fpTagTree  uint64 = 0x74726565 // "tree"
	fpTagGraph uint64 = 0x67726170 // "grap"
)

// xxRound folds one word into a lane: multiply, rotate, multiply.
func xxRound(acc, w uint64) uint64 {
	acc += w * xxPrime2
	acc = bits.RotateLeft64(acc, 31)
	return acc * xxPrime1
}

func xxMerge(h, lane uint64) uint64 {
	h ^= xxRound(0, lane)
	return h*xxPrime1 + xxPrime4
}

// canonBits returns w's bit pattern with -0.0 read as +0.0, so the two
// representations of zero weight (both valid) are one cache key.
func canonBits(w float64) uint64 { return canonWord(math.Float64bits(w)) }

// canonWord is canonBits on a weight's bit pattern.
func canonWord(b uint64) uint64 {
	if b == 1<<63 {
		return 0
	}
	return b
}

// Hasher computes a fingerprint incrementally over the canonical word
// stream, so a decoder can fold each weight array in as it fills it
// (FillWeights) instead of walking the built graph again.
// The batch functions FingerprintPath/Tree/Graph are built on it, so any
// split of the same stream across Word, Weight, Weights and Edges calls
// yields the identical value.
//
// Words go round-robin into four independent lanes; up to three words wait
// in buf until a full stripe of four is there.
type Hasher struct {
	v     [4]uint64 // lane accumulators
	buf   [4]uint64 // pending words of the current stripe
	n     int       // words in buf
	total uint64    // words hashed
}

// xxSeed0 are XXH64's initial lanes for seed 0: p1+p2, p2, 0 and −p1,
// modulo 2^64. A Hasher with these lanes and nothing else is an empty
// stream.
var xxSeed0 = [4]uint64{0x60EA27EEADC0B5D6, xxPrime2, 0, 0x61C8864E7A143579}

// newHasher starts a stream with its kind tag.
func newHasher(tag uint64) Hasher {
	h := Hasher{v: xxSeed0}
	h.Word(tag)
	return h
}

// NewPathHasher starts a path fingerprint. Mix: Word(node count), node
// weights via Weights (or Weight), Word(edge count), edge weights.
func NewPathHasher() Hasher { return newHasher(fpTagPath) }

// NewTreeHasher starts a tree fingerprint. Mix: Word(node count), node
// weights, Word(edge count), then the edges via Edges (or Word(u), Word(v),
// Weight(w) per edge in declaration order).
func NewTreeHasher() Hasher { return newHasher(fpTagTree) }

// NewGraphHasher starts a general-graph fingerprint; the stream shape is the
// tree's.
func NewGraphHasher() Hasher { return newHasher(fpTagGraph) }

// Word folds one 64-bit word (a count or an edge endpoint) into the hash.
func (fh *Hasher) Word(w uint64) {
	fh.buf[fh.n&3] = w
	fh.n++
	fh.total++
	if fh.n == 4 {
		fh.v[0] = xxRound(fh.v[0], fh.buf[0])
		fh.v[1] = xxRound(fh.v[1], fh.buf[1])
		fh.v[2] = xxRound(fh.v[2], fh.buf[2])
		fh.v[3] = xxRound(fh.v[3], fh.buf[3])
		fh.n = 0
	}
}

// Weight folds one weight into the hash with the canonical -0.0 rule.
func (fh *Hasher) Weight(w float64) { fh.Word(canonBits(w)) }

// Weights folds ws in order, as Weight on each would.
func (fh *Hasher) Weights(ws []float64) { fh.WeightBytes(weightBytes(ws)) }

// weightBytes returns ws as the little-endian float64 bytes that
// WeightBytes and the Fill constructors read: a view of ws on a
// little-endian host, a copy elsewhere.
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

// Edges folds (u, v, w) per edge in declaration order, as Word, Word and
// Weight on each would. Four edges fill three stripes, which are hashed
// straight from the slice.
func (fh *Hasher) Edges(es []Edge) {
	for fh.n != 0 && len(es) > 0 {
		fh.edge(es[0])
		es = es[1:]
	}
	fh.total += 3 * uint64(len(es)&^3)
	v0, v1, v2, v3 := fh.v[0], fh.v[1], fh.v[2], fh.v[3]
	for ; len(es) >= 4; es = es[4:] {
		q := es[:4:4]
		v0 = xxRound(v0, uint64(q[0].U))
		v1 = xxRound(v1, uint64(q[0].V))
		v2 = xxRound(v2, canonBits(q[0].W))
		v3 = xxRound(v3, uint64(q[1].U))
		v0 = xxRound(v0, uint64(q[1].V))
		v1 = xxRound(v1, canonBits(q[1].W))
		v2 = xxRound(v2, uint64(q[2].U))
		v3 = xxRound(v3, uint64(q[2].V))
		v0 = xxRound(v0, canonBits(q[2].W))
		v1 = xxRound(v1, uint64(q[3].U))
		v2 = xxRound(v2, uint64(q[3].V))
		v3 = xxRound(v3, canonBits(q[3].W))
	}
	fh.v = [4]uint64{v0, v1, v2, v3}
	for _, e := range es {
		fh.edge(e)
	}
}

// weightLimit is +Inf's bits. Every valid weight (finite and non-negative)
// has its canonical bits below it; every other weight has the sign bit or
// an all-ones exponent.
const weightLimit uint64 = 0x7FF0000000000000

// FillWeights is the one pass a decoder makes over a weight array: it
// copies len(dst) little-endian float64 words from the front of src
// (len(src) ≥ 8·len(dst)) into dst, checks that each is a valid weight,
// and folds them into the hash as Weights(dst) would. dst keeps each
// word's bits as sent, -0.0 included. It returns the index of the first
// invalid weight, which dst[bad] holds, or -1; after an invalid weight the
// hash is unspecified.
func (fh *Hasher) FillWeights(dst []float64, src []byte) (bad int) {
	src = src[:8*len(dst)]
	u := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst))
	for i := 0; i < len(u); {
		if fh.n != 0 || len(u)-i < 4 { // a word at a time until a stripe starts, and the tail
			u[i] = binary.LittleEndian.Uint64(src[8*i:])
			c := canonWord(u[i])
			if c >= weightLimit {
				return i
			}
			fh.Word(c)
			i++
			continue
		}
		start := i
		v0, v1, v2, v3 := fh.v[0], fh.v[1], fh.v[2], fh.v[3]
		for ; len(u)-i >= 4; i += 4 {
			s := src[8*i : 8*i+32 : 8*i+32]
			w0 := binary.LittleEndian.Uint64(s[0:])
			w1 := binary.LittleEndian.Uint64(s[8:])
			w2 := binary.LittleEndian.Uint64(s[16:])
			w3 := binary.LittleEndian.Uint64(s[24:])
			q := u[i : i+4 : i+4]
			q[0], q[1], q[2], q[3] = w0, w1, w2, w3
			c0, c1, c2, c3 := canonWord(w0), canonWord(w1), canonWord(w2), canonWord(w3)
			if max(c0, c1, c2, c3) >= weightLimit {
				for j, c := range [4]uint64{c0, c1, c2, c3} {
					if c >= weightLimit {
						return i + j
					}
				}
			}
			v0 = xxRound(v0, c0)
			v1 = xxRound(v1, c1)
			v2 = xxRound(v2, c2)
			v3 = xxRound(v3, c3)
		}
		fh.v = [4]uint64{v0, v1, v2, v3}
		fh.total += uint64(i - start)
	}
	return -1
}

// WeightBytes folds len(src)/8 little-endian float64 words as Weights
// folds the weights they encode. Unlike FillWeights it neither copies nor
// checks them: a decoder uses it to look a graph up in a Store before it
// fills and checks one.
func (fh *Hasher) WeightBytes(src []byte) {
	for fh.n != 0 && len(src) >= 8 {
		fh.Word(canonWord(binary.LittleEndian.Uint64(src)))
		src = src[8:]
	}
	fh.total += uint64(len(src) / 32 * 4)
	v0, v1, v2, v3 := fh.v[0], fh.v[1], fh.v[2], fh.v[3]
	for ; len(src) >= 32; src = src[32:] {
		s := src[:32:32]
		v0 = xxRound(v0, canonWord(binary.LittleEndian.Uint64(s[0:])))
		v1 = xxRound(v1, canonWord(binary.LittleEndian.Uint64(s[8:])))
		v2 = xxRound(v2, canonWord(binary.LittleEndian.Uint64(s[16:])))
		v3 = xxRound(v3, canonWord(binary.LittleEndian.Uint64(s[24:])))
	}
	fh.v = [4]uint64{v0, v1, v2, v3}
	for ; len(src) >= 8; src = src[8:] {
		fh.Word(canonWord(binary.LittleEndian.Uint64(src)))
	}
}

// EdgeRecords folds len(src)/16 edges packed as the PGB1 codec packs them,
// u and v as little-endian uint32 and then w as a little-endian float64, as
// Edges folds the same edges. Like WeightBytes it checks nothing.
func (fh *Hasher) EdgeRecords(src []byte) {
	for fh.n != 0 && len(src) >= 16 {
		fh.edgeRecord(src)
		src = src[16:]
	}
	fh.total += uint64(len(src) / 64 * 12)
	v0, v1, v2, v3 := fh.v[0], fh.v[1], fh.v[2], fh.v[3]
	for ; len(src) >= 64; src = src[64:] {
		q := src[:64:64]
		v0 = xxRound(v0, uint64(binary.LittleEndian.Uint32(q[0:])))
		v1 = xxRound(v1, uint64(binary.LittleEndian.Uint32(q[4:])))
		v2 = xxRound(v2, canonWord(binary.LittleEndian.Uint64(q[8:])))
		v3 = xxRound(v3, uint64(binary.LittleEndian.Uint32(q[16:])))
		v0 = xxRound(v0, uint64(binary.LittleEndian.Uint32(q[20:])))
		v1 = xxRound(v1, canonWord(binary.LittleEndian.Uint64(q[24:])))
		v2 = xxRound(v2, uint64(binary.LittleEndian.Uint32(q[32:])))
		v3 = xxRound(v3, uint64(binary.LittleEndian.Uint32(q[36:])))
		v0 = xxRound(v0, canonWord(binary.LittleEndian.Uint64(q[40:])))
		v1 = xxRound(v1, uint64(binary.LittleEndian.Uint32(q[48:])))
		v2 = xxRound(v2, uint64(binary.LittleEndian.Uint32(q[52:])))
		v3 = xxRound(v3, canonWord(binary.LittleEndian.Uint64(q[56:])))
	}
	fh.v = [4]uint64{v0, v1, v2, v3}
	for ; len(src) >= 16; src = src[16:] {
		fh.edgeRecord(src)
	}
}

func (fh *Hasher) edgeRecord(b []byte) {
	fh.Word(uint64(binary.LittleEndian.Uint32(b)))
	fh.Word(uint64(binary.LittleEndian.Uint32(b[4:])))
	fh.Word(canonWord(binary.LittleEndian.Uint64(b[8:])))
}

func (fh *Hasher) edge(e Edge) {
	fh.Word(uint64(e.U))
	fh.Word(uint64(e.V))
	fh.Weight(e.W)
}

// Sum returns the fingerprint of the stream so far; the Hasher stays usable.
func (fh *Hasher) Sum() uint64 {
	h := xxPrime5
	if fh.total >= 4 {
		v := fh.v
		h = bits.RotateLeft64(v[0], 1) + bits.RotateLeft64(v[1], 7) +
			bits.RotateLeft64(v[2], 12) + bits.RotateLeft64(v[3], 18)
		for _, lane := range v {
			h = xxMerge(h, lane)
		}
	}
	h += 8 * fh.total
	for _, w := range fh.buf[:fh.n] {
		h ^= xxRound(0, w)
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

// FingerprintPath returns the stable fingerprint of a linear task graph.
func FingerprintPath(p *Path) uint64 { return fingerprintPath(p.NodeW, p.EdgeW) }

func fingerprintPath(nodeW, edgeW []float64) uint64 {
	h := NewPathHasher()
	h.Word(uint64(len(nodeW)))
	h.Weights(nodeW)
	h.Word(uint64(len(edgeW)))
	h.Weights(edgeW)
	return h.Sum()
}

// FingerprintTree returns the stable fingerprint of a tree task graph.
func FingerprintTree(t *Tree) uint64 { return fingerprintTree(t.NodeW, t.Edges) }

func fingerprintTree(nodeW []float64, edges []Edge) uint64 {
	h := NewTreeHasher()
	h.Word(uint64(len(nodeW)))
	h.Weights(nodeW)
	h.Word(uint64(len(edges)))
	h.Edges(edges)
	return h.Sum()
}

// FingerprintGraph returns the stable fingerprint of a general task graph.
func FingerprintGraph(g *Graph) uint64 {
	h := NewGraphHasher()
	h.Word(uint64(len(g.NodeW)))
	h.Weights(g.NodeW)
	h.Word(uint64(len(g.Edges)))
	h.Edges(g.Edges)
	return h.Sum()
}

// Fingerprint dispatches over the graph types accepted by the codecs:
// *Path, *Tree, or *Graph.
func Fingerprint(g any) (uint64, error) {
	switch v := g.(type) {
	case *Path:
		return FingerprintPath(v), nil
	case *Tree:
		return FingerprintTree(v), nil
	case *Graph:
		return FingerprintGraph(v), nil
	default:
		return 0, fmt.Errorf("cannot fingerprint %T: %w", g, ErrBadShape)
	}
}
