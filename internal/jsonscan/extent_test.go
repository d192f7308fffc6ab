package jsonscan

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// skipEnd skips the value at the start of data and returns the offset
// after it, or -1 with the syntax error.
func skipEnd(data []byte) (int, error) {
	sc := NewScanner(data)
	sc.Skip()
	if sc.Err() != nil {
		return -1, sc.Err()
	}
	return sc.off, nil
}

// checkExtent fails t unless Extent on data agrees with Skip: for a
// well-formed object or array, the same end and the bytes from its first
// bracket; when Skip stops on the nesting limit, nil.
func checkExtent(t *testing.T, data []byte) {
	t.Helper()
	sc := NewScanner(data)
	ext, end := sc.Extent()
	if sc.off != 0 {
		t.Fatalf("%.60q: Extent moved the scanner to %d", data, sc.off)
	}
	want, err := skipEnd(data)
	lead := len(data) - len(strings.TrimLeft(string(data), " \t\r\n"))
	switch {
	case want < 0:
		if strings.Contains(err.Error(), "max depth") && ext != nil {
			t.Fatalf("%.60q: Extent delimits %d bytes past the nesting limit", data, len(ext))
		}
	case lead == len(data) || data[lead] != '{' && data[lead] != '[':
		if ext != nil {
			t.Fatalf("%.60q: Extent delimits a scalar", data)
		}
	case end != want || string(ext) != string(data[lead:want]):
		t.Fatalf("%.60q: Extent ends at %d (%q), Skip at %d", data, end, ext, want)
	}
}

// TestExtentMatchesSkip: Extent ends every well-formed object and array
// where Skip does, with strings holding brackets, quotes and backslashes at
// every offset within a 64-byte block and across blocks, and refuses what
// nests past the limit.
func TestExtentMatchesSkip(t *testing.T) {
	cases := []string{
		`{}`, `[]`, ` {} `, "\t\n[1]", `{"a":"}"}`, `{"a":"]"}`, `{"a":"\""}`, `{"a":"\\"}`,
		`{"a":"\\\""}`, `{"a":"\\\\"}`, `["[","{","\"{"]`, `{"a\"}":1}`, `{"a":{"b":[1,{"c":[]}]}}`,
		`{"a":"]"}`, `{"a":"x\/y"}`, `[1,2,3]garbage`, `{"kind":"path"}{"kind":"tree"}`,
		`null`, `1`, `"str"`, `true`, ``, `   `, `{`, `[`, `{"a":"}`, `{"a":"\"}`, `[[]`,
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		`{"a":` + strings.Repeat(`{"b":`, 9999) + `1` + strings.Repeat("}", 10000),
		`{"a":` + strings.Repeat(`{"b":`, 10000) + `1` + strings.Repeat("}", 10001),
	}
	long := strings.Repeat(`{"u":1,"v":2,"w":3.5},`, 8)
	for pad := range 140 {
		p := strings.Repeat("x", pad)
		cases = append(cases,
			`{"`+p+`":"\"}]"}`,
			`{"k":"`+p+`\\","v":[1]}`,
			`["`+p+`\\\"]", {}]`,
			`{"`+p+`\\\\":"\\"}`,
			`{"`+p+`\"`,
			`[`+long+`"`+p+`\"]",`+long+`{}]`,
			`{"a":[`+strings.Repeat("1,", pad)+`2],"b":"`+p+`"}`,
			`[`+strings.Repeat(" ", pad)+long+`"]"]`,
		)
	}
	for _, c := range cases {
		checkExtent(t, []byte(c))
	}
}

// TestExtentInsideDocument: Extent inside an enclosing document counts the
// nesting already entered against the limit, and SkipTo leaves the scanner
// where reading the value would.
func TestExtentInsideDocument(t *testing.T) {
	inner := strings.Repeat("[", 9999) + strings.Repeat("]", 9999)
	for _, c := range []struct {
		doc  string
		want bool
	}{
		{`{"g":` + inner + `}`, true},
		{`{"a":{"g":` + inner + `}}`, false},
	} {
		sc := NewScanner([]byte(c.doc))
		for sc.Err() == nil && string(sc.Key()) != "g" {
			sc.Object()
			sc.NextKey()
		}
		ext, end := sc.Extent()
		if (ext != nil) != c.want {
			t.Fatalf("depth %d: Extent %t, want %t", sc.depth, ext != nil, c.want)
		}
		if ext == nil {
			continue
		}
		sc.SkipTo(end)
		if sc.NextKey() || sc.depth != 0 {
			t.Fatalf("after SkipTo: key %q at depth %d", sc.Key(), sc.depth)
		}
		if err := sc.End(); err != nil {
			t.Fatalf("after SkipTo: %v", err)
		}
	}
}

// FuzzExtent holds Extent to Skip on arbitrary documents.
func FuzzExtent(f *testing.F) {
	long := strings.Repeat(`{"u":0,"v":1,"w":2.5},`, 6)
	for _, c := range []string{
		`{"a":"\"}"}`, `[1,{"b":"\\"}]`, `{"kind":"path","nodeWeights":[1,2]}`, `{"a":[}`,
		`{"kind":"tree","x":"]}\"","edges":[` + long + `{"u":1,"v":2,"w":0}]}`,
		`[` + long + `"` + strings.Repeat("\\", 40) + `",` + long + `0]`,
	} {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkExtent(t, data)
	})
}

// BenchmarkExtent delimits a 5k-node path envelope and a 5k-node tree
// envelope of the shape graph.WriteJSON writes, with 17-digit weights.
func BenchmarkExtent(b *testing.B) {
	x := uint64(1)
	weight := func() string {
		x = x*6364136223846793005 + 1442695040888963407
		return strconv.FormatFloat(1+99*float64(x>>11)/(1<<53), 'g', -1, 64)
	}
	var path, tree strings.Builder
	path.WriteString(`{"kind":"path","nodeWeights":[`)
	tree.WriteString(`{"kind":"tree","nodeWeights":[`)
	for i := range 5000 {
		if i > 0 {
			path.WriteString(",")
			tree.WriteString(",")
		}
		path.WriteString(weight())
		tree.WriteString(weight())
	}
	path.WriteString(`],"edgeWeights":[`)
	tree.WriteString(`],"edges":[`)
	for i := range 4999 {
		if i > 0 {
			path.WriteString(",")
			tree.WriteString(",")
		}
		path.WriteString(weight())
		fmt.Fprintf(&tree, `{"u":%d,"v":%d,"w":%s}`, int(x>>40)%(i+1), i+1, weight())
	}
	path.WriteString("]}\n")
	tree.WriteString("]}\n")
	for _, c := range []struct {
		name string
		doc  []byte
	}{{"path5k", []byte(path.String())}, {"tree5k", []byte(tree.String())}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.doc)))
			sc := NewScanner(c.doc)
			for range b.N {
				if ext, _ := sc.Extent(); len(ext) != len(c.doc)-1 {
					b.Fatalf("extent of %d bytes, want %d", len(ext), len(c.doc)-1)
				}
			}
		})
	}
}
