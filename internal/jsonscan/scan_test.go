package jsonscan

import (
	"encoding/json"
	"strings"
	"testing"
)

// skipValid reports whether the scanner accepts data as one JSON document.
func skipValid(data []byte) bool {
	sc := NewScanner(data)
	sc.Skip()
	return sc.End() == nil
}

// TestSkipMatchesValid checks the grammar against json.Valid, nesting limit
// included.
func TestSkipMatchesValid(t *testing.T) {
	cases := []string{
		``, ` `, `null`, `nul`, `nulll`, `true`, `false`, `tru`, `0`, `-0`, `01`, `-`, `1.`, `.5`,
		`1e5`, `1E+5`, `1e-05`, `1e`, `1e+`, `0x10`, `NaN`, `Infinity`, `-Infinity`, `+1`, `1_0`,
		`""`, `"a\"b"`, `"é"`, `"é"`, `"\u00g9"`, `"\x"`, `"\'"`, "\"a\tb\"", "\"\x7f\"",
		"\"\xff\"", `"𝄞"`, `"unterminated`, `[]`, `[1,]`, `[,1]`, `[1 2]`, `{}`, `{,}`,
		`{"a":1,}`, `{"a" 1}`, `{"a":}`, `{1:2}`, `{"a":1 "b":2}`, `{"a":[{"b":null}]}`, `[]]`,
		`{"a":1}}`, `{} {}`, "\t[ 1 , 2 ]\r\n", "[1]\x00", `[1]x`,
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		`{"a":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"a":` + strings.Repeat(`{"b":`, 10000) + `1` + strings.Repeat("}", 10001),
	}
	for _, c := range cases {
		if got, want := skipValid([]byte(c)), json.Valid([]byte(c)); got != want {
			t.Errorf("%.40q: scanner accepts %t, json.Valid %t", c, got, want)
		}
	}
}

// TestStringMatchesUnmarshal checks unescaping and UTF-8 repair against
// json.Unmarshal into a string.
func TestStringMatchesUnmarshal(t *testing.T) {
	cases := []string{
		`"plain"`, `"tab\tq\"b\\s\/e"`, `"\b\f\n\r\t"`, `"Aé中"`, `"𝄞"`,
		`"\ud834"`, `"\ud834x"`, `"\ud834A"`, `"\udd1e\ud834"`, `"\ud834𝄞"`,
		"\"\xff\xfe\"", "\"\xed\xa0\x80\"", "\"caf\xc3\xa9\"", "\"\xc3\"", `"�"`, `"𝄞"`,
	}
	for _, c := range cases {
		var want string
		if err := json.Unmarshal([]byte(c), &want); err != nil {
			t.Fatalf("%q: %v", c, err)
		}
		var got string
		if err := NewScanner([]byte(c)).String(&got); err != nil || got != want {
			t.Errorf("%q: String = %q (%v), json.Unmarshal %q", c, got, err, want)
		}
		if got := ""; NewScanner([]byte(c)).String(&got, want) != nil || got != want {
			t.Errorf("%q: interned String = %q", c, got)
		}
	}
}

// TestFieldsIndexMatchesUnmarshal checks key matching against
// json.Unmarshal into a struct: exact match first, then Unicode folding.
func TestFieldsIndexMatchesUnmarshal(t *testing.T) {
	type target struct {
		Solver string `json:"solver"`
		K      string `json:"k"`
		Graph  string `json:"graph"`
	}
	fields := Fields{"solver", "k", "graph"}
	for _, key := range []string{
		"solver", "Solver", "SOLVER", "sOlVeR", "\u017folver", "k", "K", "\u212a", "graph", "GRAPH",
		"graphs", "grap", "", "kk", "Kk", "solver\u0000", "\xff",
	} {
		body, err := json.Marshal(map[string]string{key: "x"})
		if err != nil {
			t.Fatal(err)
		}
		var v target
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		want := -1
		switch "x" {
		case v.Solver:
			want = 0
		case v.K:
			want = 1
		case v.Graph:
			want = 2
		}
		var unquoted string
		if err := json.Unmarshal(body[1:len(body)-5], &unquoted); err != nil {
			t.Fatal(err)
		}
		if got := fields.Index([]byte(unquoted)); got != want {
			t.Errorf("key %q: Index = %d, json.Unmarshal picks field %d", key, got, want)
		}
	}
}

// TestReadersFollowUnmarshal pins null and type-mismatch handling.
func TestReadersFollowUnmarshal(t *testing.T) {
	f := 3.5
	if err := NewScanner([]byte(`null`)).Float64(&f); err != nil || f != 3.5 {
		t.Errorf("null into float64: %v, %v; want 3.5 kept", f, err)
	}
	for _, doc := range []string{`"1"`, `true`, `[1]`, `{}`, `1e400`} {
		if err := NewScanner([]byte(doc)).Float64(&f); err == nil {
			t.Errorf("%s into float64 accepted", doc)
		} else if _, ok := err.(*TypeError); !ok {
			t.Errorf("%s into float64: %T %v, want *TypeError", doc, err, err)
		}
	}
	var n int
	for _, doc := range []string{`1.0`, `1e2`, `99999999999999999999`, `"1"`} {
		if err := NewScanner([]byte(doc)).Int(&n); err == nil {
			t.Errorf("%s into int accepted", doc)
		}
	}
	if err := NewScanner([]byte(`-0`)).Int(&n); err != nil || n != 0 {
		t.Errorf("-0 into int: %d, %v", n, err)
	}
	b := true
	if err := NewScanner([]byte(`null`)).Bool(&b); err != nil || !b {
		t.Errorf("null into bool: %v, %v; want true kept", b, err)
	}
	if err := NewScanner([]byte(`tru`)).Bool(&b); err == nil {
		t.Error("tru accepted")
	} else if _, ok := err.(*SyntaxError); !ok {
		t.Errorf("tru: %T, want *SyntaxError", err)
	}
}
