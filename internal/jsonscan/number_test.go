package jsonscan

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestFloat64MatchesParseFloat checks that Float64's grammar check accepts
// every token strconv formats, and that the value read matches strconv's bit
// for bit: random bit patterns and 1+99·U task weights, each formatted
// shortest ('g'), in 'e' at precision 0–24 and in 'f'.
func TestFloat64MatchesParseFloat(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var tok []byte
	check := func() {
		want, werr := strconv.ParseFloat(string(tok), 64)
		got := -1.5
		err := NewScanner(tok).Float64(&got)
		switch {
		case werr != nil && err == nil:
			t.Fatalf("%s: Float64 = %v, strconv: %v", tok, got, werr)
		case werr == nil && (err != nil || math.Float64bits(got) != math.Float64bits(want)):
			t.Fatalf("%s: Float64 = %v (%#x), %v; strconv %v (%#x)", tok, got, math.Float64bits(got), err, want, math.Float64bits(want))
		}
	}
	for i := 0; i < 70000; i++ {
		v := 1 + 99*r.Float64()
		if i%2 == 0 {
			v = math.Float64frombits(r.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
		}
		tok = strconv.AppendFloat(tok[:0], v, 'g', -1, 64)
		check()
		tok = strconv.AppendFloat(tok[:0], v, 'e', r.Intn(25), 64)
		check()
		tok = strconv.AppendFloat(tok[:0], v, 'f', -1, 64)
		check()
	}
}

// TestIntMatchesParseInt checks that Int64's grammar check accepts every
// integer token strconv formats, around the 18-, 19- and 20-digit
// boundaries, and that Int64 agrees with strconv on value and range.
func TestIntMatchesParseInt(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		var tok string
		switch i % 3 {
		case 0:
			tok = strconv.FormatInt(int64(r.Uint64()), 10)
		case 1:
			tok = strconv.FormatInt(r.Int63n(1e6)-5e5, 10)
		default:
			tok = strconv.FormatUint(r.Uint64(), 10)
		}
		want, werr := strconv.ParseInt(tok, 10, 64)
		got := int64(-7)
		err := NewScanner([]byte(tok)).Int64(&got)
		if (err == nil) != (werr == nil) || err == nil && got != want {
			t.Fatalf("%s: Int64 = %d, %v; strconv %d, %v", tok, got, err, want, werr)
		}
	}
}

// TestNumberReadersAllocFree gates Float64 and Int on numeric tokens at
// zero allocations, up to the longest tokens encoding/json writes for a
// float64: the string a token of up to 32 bytes is copied into for strconv
// stays on the stack.
func TestNumberReadersAllocFree(t *testing.T) {
	floats := [][]byte{
		[]byte("57.38492019384712"), []byte("1"), []byte("-0"), []byte("1e23"),
		[]byte("2.2250738585072014e-308"), []byte("0.1"), []byte("-123.456e-7"),
		[]byte("-0.0000012345678901234567"), []byte("-123456789012345680000"),
		[]byte("-1.2345678901234567e-100"),
	}
	ints := [][]byte{[]byte("0"), []byte("-9223372036854775808"), []byte("4999")}
	var (
		sc = NewScanner(nil)
		f  float64
		n  int
	)
	allocs := testing.AllocsPerRun(100, func() {
		for _, tok := range floats {
			*sc = Scanner{data: tok}
			if err := sc.Float64(&f); err != nil {
				t.Fatal(err)
			}
		}
		for _, tok := range ints {
			*sc = Scanner{data: tok}
			if err := sc.Int(&n); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("number readers: %v allocs per run, want 0", allocs)
	}
}

// agreeWithUnmarshal checks one reader against json.Unmarshal into the same
// Go type: accept or reject, error class, and, unless the document is
// malformed, the destination's value.
func agreeWithUnmarshal[T any](t *testing.T, data []byte, read func(*Scanner, *T) error, init T, same func(a, b T) bool) {
	got, want := init, init
	sc := NewScanner(data)
	err := read(sc, &got)
	if serr := sc.End(); serr != nil {
		err = serr
	}
	werr := json.Unmarshal(data, &want)
	var (
		syn   *SyntaxError
		typ   *TypeError
		jsyn  *json.SyntaxError
		jtype *json.UnmarshalTypeError
	)
	switch {
	case err == nil && werr == nil:
	case errors.As(err, &syn) && errors.As(werr, &jsyn):
		// A document with a syntax error is discarded whole; the scanner
		// may have stored a value before it reached the error.
		return
	case errors.As(err, &typ) && errors.As(werr, &jtype):
	default:
		t.Fatalf("%.60q into %T: scanner error %v, json.Unmarshal %v", data, got, err, werr)
	}
	if !same(got, want) {
		t.Fatalf("%.60q into %T: scanner %v, json.Unmarshal %v", data, got, got, want)
	}
}

// FuzzScanNumber holds Float64, Int and Int64 to json.Unmarshal on any
// input, bit for bit on float values.
func FuzzScanNumber(f *testing.F) {
	for _, s := range []string{
		`9007199254740993`, `2.2250738585072011e-308`, `4.9e-324`, `1e23`, `1.7976931348623159e308`,
		`-0`, `0e99999999999`, `1234567890123456789`, `12345678901234567890`, `0.1234567890123456789`,
		`1.2345678901234567890`, `9223372036854775807`, `-9223372036854775808`, `9223372036854775808`,
		`0.` + strings.Repeat("0", 330) + `1`, `57.38492019384712`, `1e400`, `1.5`, `1e2`, `-`, `01`,
		`1.`, `1e`, `1e+`, `[1]`, `null`, `"1"`, ` 12 `, `1E-5`, `0.1e1`, `1e00001`, `1 x`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		agreeWithUnmarshal(t, data, (*Scanner).Float64, 3.5, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		})
		agreeWithUnmarshal(t, data, (*Scanner).Int, 7, func(a, b int) bool { return a == b })
		agreeWithUnmarshal(t, data, (*Scanner).Int64, 7, func(a, b int64) bool { return a == b })
	})
}

var sinkFloat float64

// BenchmarkScanFloat64 reads an array of 10k task weights drawn as the
// benchmark's generator draws them, 1+99·U, in encoding/json's format.
func BenchmarkScanFloat64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	doc := []byte{'['}
	for i := 0; i < 10000; i++ {
		if i > 0 {
			doc = append(doc, ',')
		}
		doc = strconv.AppendFloat(doc, 1+99*r.Float64(), 'f', -1, 64)
	}
	doc = append(doc, ']')
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewScanner(doc)
		if ok, err := sc.Array(); !ok {
			b.Fatal(err)
		}
		for sc.NextElem() {
			if err := sc.Float64(&sinkFloat); err != nil {
				b.Fatal(err)
			}
		}
		if err := sc.End(); err != nil {
			b.Fatal(err)
		}
	}
}
