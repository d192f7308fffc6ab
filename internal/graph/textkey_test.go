package graph

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/jsonscan"
)

// scanDoc decodes the envelope at the start of doc with ScanJSON, then
// checks that only whitespace follows, as DecodeJSON does. It returns the
// graph, its fingerprint, and both errors as text; End's message carries
// the offset the scanner stood at.
func scanDoc(doc string, maxNodes int, store Store) (any, uint64, string) {
	sc := jsonscan.NewScanner([]byte(doc))
	g, fp, err := ScanJSON(sc, maxNodes, store)
	return g, fp, fmt.Sprintf("%v / %v", err, sc.End())
}

// TestScanJSONTextKey: with a store, an envelope whose text decoded before
// is answered by its text key with the stored graph, and leaves the scanner
// where a full decode does; truncated, garbled and oversized envelopes fail
// exactly as they do without a store; a -0 twin gets the stored graph; only
// successful path and tree decodes record a text entry; and a text entry
// whose graph is gone falls back to the parse.
func TestScanJSONTextKey(t *testing.T) {
	for _, env := range []string{
		`{"kind":"path","nodeWeights":[1,0,3.5],"edgeWeights":[4,5]}`,
		`{"kind":"tree","x":"\"}]\\","nodeWeights":[1,2,3],"edges":[{"u":0,"v":1,"w":0},{"u":1,"v":2,"w":6,"y":{"z":["]"]}}]}`,
	} {
		st := &mapStore{m: map[uint64]any{}}
		first, fp, errs := scanDoc(env, 0, st)
		if first == nil || len(st.texts) != 1 {
			t.Fatalf("%s: %s, %d text entries", env, errs, len(st.texts))
		}

		gets := st.gets
		for _, doc := range []string{env, env + " \n", "\t" + env + " x", env + "}", env + env} {
			g, gfp, got := scanDoc(doc, 0, st)
			_, _, want := scanDoc(doc, 0, nil)
			if g != first || gfp != fp || got != want {
				t.Fatalf("%q: %p %016x %s, want %p %016x %s", doc, g, gfp, got, first, fp, want)
			}
		}
		sc := jsonscan.NewScanner([]byte("[" + env + ",7]"))
		sc.Array()
		sc.NextElem()
		g, _, err := ScanJSON(sc, 0, st)
		var after int
		if !sc.NextElem() || sc.Int(&after) != nil || sc.NextElem() || sc.End() != nil || g != first || err != nil || after != 7 {
			t.Fatalf("%s inside an array: %p (%v), then %d, %v", env, g, err, after, sc.End())
		}
		if st.gets != gets {
			t.Fatalf("%s: text hits made %d fingerprint lookups", env, st.gets-gets)
		}

		for i := range len(env) {
			checkSameDecode(t, st, env[:i])
			for _, c := range `"\}]x,` {
				checkSameDecode(t, st, env[:i]+string(c)+env[i+1:])
			}
		}
		_, _, limited := scanDoc(env, 2, st)
		if _, _, want := scanDoc(env, 2, nil); limited != want || !strings.Contains(limited, ErrTooManyNodes.Error()) {
			t.Fatalf("%s over 2 nodes: %s, want %s", env, limited, want)
		}

		texts := len(st.texts)
		twin := strings.Replace(env, `0}`, `-0}`, 1)
		if !strings.Contains(env, `0}`) {
			twin = strings.Replace(env, `,0,`, `,-0,`, 1)
		}
		if g, _, errs := scanDoc(twin, 0, st); g != first {
			t.Fatalf("%s: -0 twin decoded to %p (%s), want the stored %p", twin, g, errs, first)
		}
		if len(st.texts) != texts+1 {
			t.Fatalf("%s: %d text entries after the -0 twin, want %d", env, len(st.texts), texts+1)
		}

		delete(st.m, fp)
		puts := st.puts
		g, gfp, errs := scanDoc(env, 0, st)
		if g == nil || g == first || gfp != fp || st.puts != puts+1 {
			t.Fatalf("%s after eviction: %p %016x %s, %d puts", env, g, gfp, errs, st.puts-puts)
		}
		if again, _, _ := scanDoc(env, 0, st); again != g {
			t.Fatalf("%s after eviction: the second decode is %p, want the re-stored %p", env, again, g)
		}
	}

	st := &mapStore{m: map[uint64]any{}}
	for _, doc := range []string{
		`{"kind":"graph","nodeWeights":[1,2],"edges":[{"u":0,"v":1,"w":3}]}`,
		`null`,
		`{"kind":"path","nodeWeights":[1,-2],"edgeWeights":[1]}`,
		`{"kind":"tree","nodeWeights":[1,2],"edges":[{"u":0,"v":0,"w":1}]}`,
		`{"kind":"path","nodeWeights":[1,2],"edgeWeights":["1"]}`,
		`{"kind":"cycle","nodeWeights":[1]}`,
	} {
		for range 2 {
			checkSameDecode(t, st, doc)
		}
	}
	if len(st.texts) != 0 {
		t.Fatalf("%d text entries from graphs, nulls and failed decodes", len(st.texts))
	}
}

// checkSameDecode fails t unless doc decodes with st as it does without a
// store: the same errors, offsets included, and the same fingerprint.
func checkSameDecode(t *testing.T, st Store, doc string) {
	t.Helper()
	g, fp, got := scanDoc(doc, 0, st)
	w, wfp, want := scanDoc(doc, 0, nil)
	if got != want || (g == nil) != (w == nil) || fp != wfp {
		t.Fatalf("%q: with a store %s (%016x), without %s (%016x)", doc, got, fp, want, wfp)
	}
}
