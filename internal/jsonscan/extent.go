package jsonscan

import (
	"encoding/binary"
	"math/bits"
)

// Extent delimits the object or array that comes next, for a caller that
// can answer for a value from its bytes alone, such as a table keyed by
// the value's text. It matches brackets outside strings, stepping over the
// byte after each backslash inside them, and checks nothing else: no
// number grammar, no key syntax, not even which kind of bracket closes.
// That lets it look at 64 bytes at a time, and it still finds the exact
// end of every well-formed value; for a malformed one it may delimit any
// bytes, or none.
//
// It returns the value's bytes and the offset after them. It returns nil
// when a syntax error is pending, when no object or array comes next, when
// the brackets do not close within the document, or when they nest deeper
// than reading the value here would accept. The scanner does not move;
// SkipTo moves it past the value.
func (s *Scanner) Extent() ([]byte, int) {
	if s.err != nil {
		return nil, 0
	}
	d := s.data
	start := s.off
	for start < len(d) && isSpace(d[start]) {
		start++
	}
	if start == len(d) || d[start] != '{' && d[start] != '[' {
		return nil, 0
	}
	x := extentScan{d: d, limit: maxDepth - s.depth}
	i, end := start, 0
	for i+64 <= len(d) && end == 0 {
		quotes, cands := blockMarks(d[i : i+64 : i+64])
		if quotes|cands|x.str == 0 {
			i += 64
			continue
		}
		// Without escapes, a byte is inside a string when an odd number
		// of quotes precede it in the block (the opening quote counts
		// itself), or an even number do and the block starts inside one:
		// a prefix XOR over the quote bits. That is right up to the
		// block's first backslash, which is a candidate.
		quotes ^= quotes << 1
		quotes ^= quotes << 2
		quotes ^= quotes << 4
		quotes ^= quotes << 8
		quotes ^= quotes << 16
		quotes ^= quotes << 32
		in := quotes ^ x.str
		if cands&in != 0 {
			// Maybe an escape: this block byte by byte.
			i, end = x.bytes(i, i+64)
			continue
		}
		x.str = uint64(int64(in) >> 63)
		for m := cands &^ in; m != 0 && end == 0; m &= m - 1 {
			end = x.bracket(i + bits.TrailingZeros64(m))
		}
		i += 64
	}
	if end == 0 {
		_, end = x.bytes(i, len(d))
	}
	if end <= 0 {
		return nil, 0
	}
	return d[start:end], end
}

// SkipTo moves the scanner to end, an offset Extent returned at its current
// position, leaving it where reading the value would. It checks nothing:
// the caller answers for the value being well-formed.
func (s *Scanner) SkipTo(end int) { s.off = end }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// extentScan is the state of an Extent scan between blocks.
type extentScan struct {
	d            []byte
	depth, limit int
	str          uint64 // all ones while the scan is inside a string, else 0
}

// bracket counts the byte at j, outside strings: an opening bracket nests
// one deeper and a closing one one shallower. It returns the offset after
// the value when that ends it, -1 when the value nests too deep, and 0
// otherwise; other bytes it ignores.
func (x *extentScan) bracket(j int) int {
	switch x.d[j] {
	case '{', '[':
		if x.depth++; x.depth > x.limit {
			return -1
		}
	case '}', ']':
		if x.depth--; x.depth == 0 {
			return j + 1
		}
	}
	return 0
}

// bytes scans from i to end one byte at a time, and on past the byte a
// backslash at end-1 escapes. It returns where it stopped and what bracket
// returned there.
func (x *extentScan) bytes(i, end int) (int, int) {
	d := x.d
	inStr, esc := x.str != 0, false
	for ; i < end || esc && i < len(d); i++ {
		switch c := d[i]; {
		case esc:
			esc = false
		case inStr:
			inStr, esc = c != '"', c == '\\'
		case c == '"':
			inStr = true
		default:
			if r := x.bracket(i); r != 0 {
				return i + 1, r
			}
		}
	}
	x.str = 0
	if inStr {
		x.str = ^uint64(0)
	}
	return i, 0
}

// blockMarks returns, one bit per byte of the 64-byte block b with byte k
// in bit k, its quotes and its candidate brackets (see wordMarks).
func blockMarks(b []byte) (quotes, cands uint64) {
	q0, c0 := wordMarks(binary.LittleEndian.Uint64(b[0:]))
	q1, c1 := wordMarks(binary.LittleEndian.Uint64(b[8:]))
	q2, c2 := wordMarks(binary.LittleEndian.Uint64(b[16:]))
	q3, c3 := wordMarks(binary.LittleEndian.Uint64(b[24:]))
	q4, c4 := wordMarks(binary.LittleEndian.Uint64(b[32:]))
	q5, c5 := wordMarks(binary.LittleEndian.Uint64(b[40:]))
	q6, c6 := wordMarks(binary.LittleEndian.Uint64(b[48:]))
	q7, c7 := wordMarks(binary.LittleEndian.Uint64(b[56:]))
	quotes = q0 | q1<<8 | q2<<16 | q3<<24 | q4<<32 | q5<<40 | q6<<48 | q7<<56
	cands = c0 | c1<<8 | c2<<16 | c3<<24 | c4<<32 | c5<<40 | c6<<48 | c7<<56
	return quotes, cands
}

const ones = 0x0101010101010101

// wordMarks returns, one bit per byte of the little-endian word w, its
// quotes and its candidate brackets: the bytes in 0x58–0x5F and 0x78–0x7F.
// Setting bit 5 folds those to 0x78–0x7F, which one test finds after
// clearing the low three bits. They hold the brackets and the backslash,
// and otherwise only letters and symbols that a graph envelope's keys do
// not use; the caller looks at each candidate byte.
func wordMarks(w uint64) (quotes, cands uint64) {
	return gather(zeroBytes(w ^ '"'*ones)), gather(zeroBytes((w | 0x20*ones ^ 0x78*ones) & (0xF8 * ones)))
}

// gather packs the 0x80 marks of the eight bytes of x into the low eight
// bits, byte j's in bit j: the product moves byte j's mark to bit 56+j,
// and no two of its partial products overlap.
func gather(x uint64) uint64 { return (x >> 7) * 0x0102040810204080 >> 56 }

// zeroBytes marks with 0x80 each zero byte of w, exactly: adding 0x7F to a
// byte's low seven bits sets its high bit unless they are all zero, and
// never carries into the next byte.
func zeroBytes(w uint64) uint64 {
	const low7 = 0x7F * ones
	return ^((w&low7 + low7) | w | low7)
}
