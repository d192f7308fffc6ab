// Package jsonscan is a single-pass JSON reader over a byte slice, shared by
// the graph envelope decoder (internal/graph) and the serving layer's request
// decoders (internal/server). It accepts exactly the documents
// encoding/json's Unmarshal accepts and yields the same values, but decodes
// straight into the caller's variables while it validates, so a request is
// read once, without reflection and without a per-number allocation.
//
// Numbers are checked against JSON's grammar by the scanner itself, since
// strconv also accepts forms JSON does not, and then converted by
// strconv.ParseFloat or ParseInt. A token of up to 32 bytes, which covers
// every number encoding/json writes, converts without an allocation.
//
// A Scanner walks one document. Object and Array enter containers, NextKey
// and NextElem iterate them, and Float64, Int, Int64, Bool and String read
// scalars into typed destinations. Every reader follows Unmarshal's rules:
// null leaves the destination unchanged, and a value of the wrong JSON type
// is skipped (and still validated) and reported as a *TypeError. Syntax
// errors are sticky: after one, every call is a no-op and Err returns it.
//
// A caller that can answer for a value from its bytes alone, such as a
// table keyed by a value's text, reads them with Rest and Depth and moves
// past the value with SkipTo; the scanner does not delimit values itself.
package jsonscan

import (
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a document nesting containers
// deeper than this is a syntax error.
const maxDepth = 10000

// SyntaxError is a violation of the JSON grammar.
type SyntaxError struct {
	msg string
	// Offset is the byte offset of the error in the document.
	Offset int
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("json: %s (offset %d)", e.msg, e.Offset)
}

// TypeError is a well-formed value of a JSON type the destination cannot
// hold, like a string where a number belongs or 1.5 for an integer.
type TypeError struct {
	// Value describes the JSON value: "string", "number 1.5", "object".
	Value string
	// Type is the Go type of the destination.
	Type string
	// Offset is the byte offset of the value in the document.
	Offset int
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("json: cannot unmarshal %s into Go value of type %s (offset %d)", e.Value, e.Type, e.Offset)
}

// Scanner reads one JSON document. The zero value is an empty document; use
// NewScanner.
type Scanner struct {
	data  []byte
	off   int
	depth int
	// first is set by entering a container and cleared by its first
	// NextKey or NextElem, which is the only call where a closing bracket
	// may directly follow the opening one and a comma may not.
	first bool
	err   error
	key   []byte
	buf   []byte // unescaped strings and keys
}

// NewScanner returns a scanner positioned before the document in data.
func NewScanner(data []byte) *Scanner {
	return &Scanner{data: data}
}

// Err returns the first syntax error, or nil.
func (s *Scanner) Err() error { return s.err }

// Key returns the key NextKey last advanced to. It is valid until the next
// call on the scanner.
func (s *Scanner) Key() []byte { return s.key }

// End checks that nothing but whitespace follows the document, as Unmarshal
// requires, and returns the first syntax error.
func (s *Scanner) End() error {
	if s.err == nil {
		if s.peek(); s.off < len(s.data) {
			s.unexpected("after top-level value")
		}
	}
	return s.err
}

// Object enters the object that comes next. It reports false with a nil
// error for null, which leaves a struct unchanged, and false with an error
// for any other value, which it skips.
func (s *Scanner) Object() (bool, error) {
	if s.err == nil && s.peek() == '{' {
		s.off++
		s.enter()
		return s.err == nil, s.err
	}
	return false, s.mismatch("struct")
}

// Array enters the array that comes next. It reports false with a nil error
// for null, which sets a slice to nil, and false with an error for any other
// value, which it skips.
func (s *Scanner) Array() (bool, error) {
	if s.err == nil && s.peek() == '[' {
		s.off++
		s.enter()
		return s.err == nil, s.err
	}
	return false, s.mismatch("slice")
}

// NextKey advances to the next key of the innermost object and past its
// colon; Key returns it. At the closing brace, which it consumes, or on a
// syntax error it reports false.
func (s *Scanner) NextKey() bool {
	if s.err != nil {
		return false
	}
	c := s.peek()
	if s.first {
		s.first = false
	} else if c == ',' {
		s.off++
		if c = s.peek(); c != '"' {
			s.unexpected("looking for beginning of object key string")
			return false
		}
	} else if c != '}' {
		s.unexpected("after object key:value pair")
		return false
	}
	switch c {
	case '}':
		s.off++
		s.depth--
		return false
	case '"':
	default:
		s.unexpected("looking for beginning of object key string")
		return false
	}
	s.key = s.str()
	if s.err != nil {
		return false
	}
	if s.peek() != ':' {
		s.unexpected("after object key")
		return false
	}
	s.off++
	return true
}

// NextElem advances to the next element of the innermost array. At the
// closing bracket, which it consumes, or on a syntax error it reports false.
func (s *Scanner) NextElem() bool {
	if s.err != nil {
		return false
	}
	c := s.peek()
	if s.first {
		s.first = false
		if c != ']' {
			return true
		}
	}
	switch c {
	case ']':
		s.off++
		s.depth--
		return false
	case ',':
		s.off++
		return true
	default:
		s.unexpected("after array element")
		return false
	}
}

// Skip validates and consumes the next value, whatever its type.
func (s *Scanner) Skip() { s.skip() }

// Rest skips whitespace and returns the offset where the next value starts
// and the document from there on.
func (s *Scanner) Rest() (int, []byte) {
	s.peek()
	return s.off, s.data[s.off:]
}

// Depth returns the number of containers the scanner is inside.
func (s *Scanner) Depth() int { return s.depth }

// SkipTo moves the scanner to offset end of the document, leaving it where
// reading the values before end would. It checks nothing: the caller
// answers for those values being well-formed and nesting no deeper than
// the limit allows from the scanner's depth.
func (s *Scanner) SkipTo(end int) { s.off = end }

// Float64 reads a number into *dst, parsed as strconv.ParseFloat parses it;
// a number out of float64's range is a *TypeError.
func (s *Scanner) Float64(dst *float64) error {
	if s.err == nil && isNumberStart(s.peek()) {
		start := s.off
		tok := s.number()
		if s.err != nil {
			return s.err
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return &TypeError{Value: "number " + string(tok), Type: "float64", Offset: start}
		}
		*dst = v
		return nil
	}
	return s.mismatch("float64")
}

// Int64 reads an integer into *dst. A number with a fraction or an exponent,
// like 1.0 or 1e2, or one out of int64's range is a *TypeError.
func (s *Scanner) Int64(dst *int64) error {
	return s.integer(dst, "int64", math.MinInt64, math.MaxInt64)
}

// Int is Int64 for an int destination.
func (s *Scanner) Int(dst *int) error {
	v := int64(*dst)
	err := s.integer(&v, "int", math.MinInt, math.MaxInt)
	*dst = int(v)
	return err
}

// integer reads an integer in [lo, hi] into *dst, naming typ in errors.
func (s *Scanner) integer(dst *int64, typ string, lo, hi int64) error {
	if s.err == nil && isNumberStart(s.peek()) {
		start := s.off
		tok := s.number()
		if s.err != nil {
			return s.err
		}
		v, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil || v < lo || v > hi {
			return &TypeError{Value: "number " + string(tok), Type: typ, Offset: start}
		}
		*dst = v
		return nil
	}
	return s.mismatch(typ)
}

// Bool reads true or false into *dst.
func (s *Scanner) Bool(dst *bool) error {
	if s.err == nil {
		switch s.peek() {
		case 't':
			if s.literal("true") {
				*dst = true
			}
			return s.err
		case 'f':
			if s.literal("false") {
				*dst = false
			}
			return s.err
		}
	}
	return s.mismatch("bool")
}

// String reads a string into *dst, unescaped, with invalid UTF-8 replaced by
// U+FFFD as Unmarshal does. When the result equals one of known, *dst is set
// to that string instead of a copy, so recognised values do not allocate.
func (s *Scanner) String(dst *string, known ...string) error {
	if s.err == nil && s.peek() == '"' {
		b := s.str()
		if s.err != nil {
			return s.err
		}
		for _, k := range known {
			if string(b) == k {
				*dst = k
				return nil
			}
		}
		*dst = string(b)
		return nil
	}
	return s.mismatch("string")
}

// mismatch consumes a value the caller's destination type does not take:
// null is a no-op, anything else is a *TypeError naming want.
func (s *Scanner) mismatch(want string) error {
	if s.err != nil {
		return s.err
	}
	start := s.off
	kind := s.skip()
	switch {
	case s.err != nil:
		return s.err
	case kind == "null":
		return nil
	}
	return &TypeError{Value: kind, Type: want, Offset: start}
}

// skip consumes one value and returns its JSON type name.
func (s *Scanner) skip() string {
	if s.err != nil {
		return ""
	}
	switch c := s.peek(); c {
	case '{':
		s.off++
		s.enter()
		for s.NextKey() {
			s.skip()
		}
		return "object"
	case '[':
		s.off++
		s.enter()
		for s.NextElem() {
			s.skip()
		}
		return "array"
	case '"':
		s.str()
		return "string"
	case 't':
		s.literal("true")
		return "bool"
	case 'f':
		s.literal("false")
		return "bool"
	case 'n':
		s.literal("null")
		return "null"
	default:
		if isNumberStart(c) {
			s.number()
			return "number"
		}
		s.unexpected("looking for beginning of value")
		return ""
	}
}

// enter records one more level of nesting after an opening bracket.
func (s *Scanner) enter() {
	s.depth++
	s.first = true
	if s.depth > maxDepth {
		s.off--
		s.fail("exceeded max depth")
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (s *Scanner) peek() byte {
	for ; s.off < len(s.data); s.off++ {
		switch c := s.data[s.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (s *Scanner) fail(msg string) {
	if s.err == nil {
		s.err = &SyntaxError{msg: msg, Offset: s.off}
	}
}

// unexpected reports the byte at the current offset, or the end of input.
func (s *Scanner) unexpected(context string) {
	if s.off >= len(s.data) {
		s.fail("unexpected end of JSON input")
		return
	}
	s.fail("invalid character " + strconv.QuoteRune(rune(s.data[s.off])) + " " + context)
}

// literal consumes word (true, false or null), whose first byte is next.
func (s *Scanner) literal(word string) bool {
	for i := 0; i < len(word); i++ {
		if s.off >= len(s.data) || s.data[s.off] != word[i] {
			s.unexpected("in literal " + word)
			return false
		}
		s.off++
	}
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isNumberStart(c byte) bool { return c == '-' || isDigit(c) }

// number consumes a number token and returns it, checking the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? itself: strconv also
// accepts forms JSON does not, such as Inf, NaN, hex floats and underscores.
func (s *Scanner) number() []byte {
	b, i := s.data, s.off
	start := i
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		s.off = i
		s.unexpected("in numeric literal")
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if i = digits(b, i); i == frac {
			s.off = i
			s.unexpected("after decimal point in numeric literal")
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		first := i
		if i = digits(b, i); i == first {
			s.off = i
			s.unexpected("in exponent of numeric literal")
			return nil
		}
	}
	s.off = i
	return b[start:i]
}

// digits returns the offset after the run of ASCII digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// str consumes a string whose opening quote is next and returns its
// contents. A string of plain ASCII without escapes is returned in place;
// anything else is unescaped into the scanner's buffer.
func (s *Scanner) str() []byte {
	d := s.data
	start := s.off + 1
	for i := start; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			s.off = i + 1
			return d[start:i]
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return s.strSlow(start, i)
		}
	}
	s.off = len(d)
	s.fail("unexpected end of JSON input")
	return nil
}

// strSlow finishes a string from offset i, unescaping it the way
// encoding/json does: \u escapes decode as UTF-16, with an unpaired
// surrogate becoming U+FFFD, and invalid UTF-8 bytes become U+FFFD each.
func (s *Scanner) strSlow(start, i int) []byte {
	d := s.data
	b := append(s.buf[:0], d[start:i]...)
	defer func() { s.buf = b[:0] }()
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			s.off = i + 1
			return b
		case c < ' ':
			s.off = i
			s.unexpected("in string literal")
			return nil
		case c == '\\':
			if i+1 >= len(d) {
				s.off = len(d)
				s.unexpected("in string escape code")
				return nil
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, ok := hex4(d, i+2)
				if !ok {
					s.off = i + 2
					for s.off < len(d) && s.off < i+6 && isHex(d[s.off]) {
						s.off++
					}
					s.unexpected("in \\u hexadecimal character escape")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if i+1 < len(d) && d[i] == '\\' && d[i+1] == 'u' {
						if r2, ok := hex4(d, i+2); ok {
							if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
								b = utf8.AppendRune(b, dec)
								i += 6
								continue
							}
						}
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				s.off = i + 1
				s.unexpected("in string escape code")
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	s.off = len(d)
	s.fail("unexpected end of JSON input")
	return nil
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// hex4 decodes the four hex digits at d[i:].
func hex4(d []byte, i int) (rune, bool) {
	if i+4 > len(d) {
		return 0, false
	}
	var r rune
	for _, c := range d[i : i+4] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// Fields lists a struct's JSON field names in declaration order.
type Fields []string

// Index returns the position of the field an object key selects, or -1 for
// an unknown key. As in encoding/json, an exact match wins, then a
// case-insensitive one under Unicode simple folding (so the Kelvin sign
// matches "k"). Names must be ASCII.
func (f Fields) Index(key []byte) int {
	for i, name := range f {
		if string(key) == name {
			return i
		}
	}
	for i, name := range f {
		if foldEqual(key, name) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key and the ASCII name fold to the same string
// under encoding/json's foldName.
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		var r rune
		if c := key[i]; c < utf8.RuneSelf {
			r = rune(upper(c))
			i++
		} else {
			var n int
			r, n = utf8.DecodeRune(key[i:])
			r = foldRune(r)
			i += n
		}
		if j >= len(name) || r != rune(upper(name[j])) {
			return false
		}
	}
	return j == len(name)
}

func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
