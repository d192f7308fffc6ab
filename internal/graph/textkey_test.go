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
	return scanNested(doc, 0, maxNodes, store)
}

// scanNested is scanDoc with doc nested in depth arrays, so that ScanJSON
// starts at that depth.
func scanNested(doc string, depth, maxNodes int, store Store) (any, uint64, string) {
	sc := jsonscan.NewScanner([]byte(strings.Repeat("[", depth) + doc + strings.Repeat("]", depth)))
	for range depth {
		sc.Array()
		sc.NextElem()
	}
	g, fp, err := ScanJSON(sc, maxNodes, store)
	for range depth {
		sc.NextElem()
	}
	return g, fp, fmt.Sprintf("%v / %v", err, sc.End())
}

// textKeyEnvelopes are envelopes of at least textPrefix bytes, with
// brackets and escaped quotes inside strings.
var textKeyEnvelopes = []string{
	`{"kind":"path","nodeWeights":[1,0,3.5,2.25,8,1],"edgeWeights":[4,5,0.5,6,7]}`,
	`{"kind":"tree","x":"\"}]\\","nodeWeights":[1,2,3],"edges":[{"u":0,"v":1,"w":0},{"u":1,"v":2,"w":6,"y":{"z":["]"]}}]}`,
}

// shortEnvelope is shorter than textPrefix.
const shortEnvelope = `{"kind":"path","nodeWeights":[1,0,3.5],"edgeWeights":[4,5]}`

// unrecordedDocs decode to no path or tree.
var unrecordedDocs = []string{
	`{"kind":"graph","nodeWeights":[1,2],"edges":[{"u":0,"v":1,"w":3}]}`,
	`null`,
	`{"kind":"path","nodeWeights":[1,-2],"edgeWeights":[1]}`,
	`{"kind":"tree","nodeWeights":[1,2],"edges":[{"u":0,"v":0,"w":1}]}`,
	`{"kind":"path","nodeWeights":[1,2],"edgeWeights":["1"]}`,
	`{"kind":"cycle","nodeWeights":[1]}`,
}

// TestScanJSONTextKey: with a store, an envelope of at least textPrefix
// bytes whose text decoded before is answered by its text entry with the
// stored graph, and leaves the scanner where a full decode does; truncated,
// garbled and oversized envelopes fail exactly as they do without a store;
// a -0 twin gets the stored graph; only successful path and tree decodes
// record a text entry; a text entry whose graph is gone falls back to the
// parse; an envelope met deeper than it was recorded at is parsed, so it
// fails on the nesting limit as it does without a store; and a shorter
// envelope is never answered by its text.
func TestScanJSONTextKey(t *testing.T) {
	for _, env := range textKeyEnvelopes {
		st := &mapStore{m: map[uint64]any{}}
		first, fp, errs := scanDoc(env, 0, st)
		if first == nil || len(st.texts) != 1 {
			t.Fatalf("%s: %s, %d text entries", env, errs, len(st.texts))
		}

		// Inside an array the envelope is one level deeper than it was
		// recorded at, so it is parsed and recorded again at that depth;
		// from then on it is a text hit there and at the top level.
		inArray := func() {
			t.Helper()
			sc := jsonscan.NewScanner([]byte("[" + env + ",7]"))
			sc.Array()
			sc.NextElem()
			g, _, err := ScanJSON(sc, 0, st)
			var after int
			if !sc.NextElem() || sc.Int(&after) != nil || sc.NextElem() || sc.End() != nil || g != first || err != nil || after != 7 {
				t.Fatalf("%s inside an array: %p (%v), then %d, %v", env, g, err, after, sc.End())
			}
		}
		inArray()
		gets := st.gets
		for _, doc := range []string{env, env + " \n", "\t" + env + " x", env + "}", env + env} {
			g, gfp, got := scanDoc(doc, 0, st)
			_, _, want := scanDoc(doc, 0, nil)
			if g != first || gfp != fp || got != want {
				t.Fatalf("%q: %p %016x %s, want %p %016x %s", doc, g, gfp, got, first, fp, want)
			}
		}
		inArray()
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

		// Recorded at depth 1, the envelope nests 2 to 5 deep itself, so
		// some of these depths pass the nesting limit and some do not; all
		// are parsed.
		for depth := 9994; depth <= 9999; depth++ {
			g, _, got := scanNested(env, depth, 0, st)
			w, _, want := scanNested(env, depth, 0, nil)
			if got != want || (g == nil) != (w == nil) {
				t.Fatalf("%s at depth %d: with a store %s, without %s", env, depth, got, want)
			}
		}

		twin := strings.Replace(env, `0}`, `-0}`, 1)
		if !strings.Contains(env, `0}`) {
			twin = strings.Replace(env, `,0,`, `,-0,`, 1)
		}
		if g, _, errs := scanDoc(twin, 0, st); g != first {
			t.Fatalf("%s: -0 twin decoded to %p (%s), want the stored %p", twin, g, errs, first)
		}
		gets = st.gets
		if g, _, _ := scanDoc(twin, 0, st); g != first || st.gets != gets {
			t.Fatalf("%s: the -0 twin's second decode is %p with %d fingerprint lookups, want a text hit", twin, g, st.gets-gets)
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

	// Envelopes that share their first textPrefix bytes share one text
	// entry, the last recorded, and each still decodes to its own graph.
	for _, pair := range [][2]string{
		{`{"kind":"path","nodeWeights":[1,0,3.5,2.25,8,1],"edgeWeights":[4,5,0.5,6,7]}`, `{"kind":"path","nodeWeights":[1,0,3.5,2.25,8,1],"edgeWeights":[4,5,0.5,6,9]}`},
		{`{"kind":"tree","x":"\"}]\\","nodeWeights":[1,2,3],"edges":[{"u":0,"v":1,"w":0},{"u":1,"v":2,"w":6}]}`, `{"kind":"tree","x":"\"}]\\","nodeWeights":[1,2,3],"edges":[{"u":0,"v":1,"w":0},{"u":1,"v":2,"w":8}]}`},
	} {
		if pair[0][:textPrefix] != pair[1][:textPrefix] {
			t.Fatalf("%s and %s differ in their first %d bytes", pair[0], pair[1], textPrefix)
		}
		st := &mapStore{m: map[uint64]any{}}
		for range 2 {
			for _, env := range pair {
				g, fp, got := scanDoc(env, 0, st)
				w, wfp, want := scanDoc(env, 0, nil)
				if got != want || fp != wfp || !sameGraph(g, w) {
					t.Fatalf("%s after %s: %+v %016x %s, want %+v %016x %s", env, pair, g, fp, got, w, wfp, want)
				}
			}
		}
		if len(st.texts) != 1 {
			t.Fatalf("%s: %d text entries, want 1", pair, len(st.texts))
		}
	}

	// A shorter envelope decodes as without a store, by its fingerprint,
	// also when the document goes on for more than textPrefix bytes.
	short := shortEnvelope
	st := &mapStore{m: map[uint64]any{}}
	for _, depth := range []int{0, 0, 1} {
		doc := short + strings.Repeat(" ", depth*textPrefix)
		gets := st.gets
		g, fp, got := scanNested(doc, depth, 0, st)
		w, wfp, want := scanNested(doc, depth, 0, nil)
		if got != want || fp != wfp || !sameGraph(g, w) {
			t.Fatalf("%q at depth %d: with a store %s, without %s", doc, depth, got, want)
		}
		if st.gets != gets+1 || len(st.texts) != 0 {
			t.Fatalf("%q at depth %d: %d fingerprint lookups, %d text entries; want 1 and 0", doc, depth, st.gets-gets, len(st.texts))
		}
	}

	// Nothing but a successful path or tree decode records a text entry,
	// whatever the envelope's length.
	pad := `{"pad":"` + strings.Repeat("x", textPrefix) + `",`
	for _, doc := range unrecordedDocs {
		long := strings.Replace(doc, "{", pad, 1)
		if long == doc {
			long += strings.Repeat(" ", textPrefix)
		}
		for range 2 {
			checkSameDecode(t, st, doc)
			checkSameDecode(t, st, long)
		}
	}
	if len(st.texts) != 0 {
		t.Fatalf("%d text entries from graphs, nulls, failed decodes and short envelopes", len(st.texts))
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

// FuzzScanJSONStore holds a decode with a store to one without on
// arbitrary input, bare and nested in arrays: once without a store and
// twice with one, each decode yields the same graph bits, fingerprint and
// errors, offsets included. One store serves all the depths, so an
// envelope recorded at one depth is met at the others, shallower and
// deeper.
func FuzzScanJSONStore(f *testing.F) {
	long := strings.Repeat(`{"u":0,"v":1,"w":2.5},`, 6)
	seeds := []string{
		`{"a":"\"}"}`, `[1,{"b":"\\"}]`, `{"kind":"path","nodeWeights":[1,2]}`, `{"a":[}`,
		`{"kind":"tree","x":"]}\"","edges":[` + long + `{"u":1,"v":2,"w":0}]}`,
		`[` + long + `"` + strings.Repeat("\\", 40) + `",` + long + `0]`,
		shortEnvelope,
	}
	seeds = append(append(seeds, textKeyEnvelopes...), unrecordedDocs...)
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := &mapStore{m: map[uint64]any{}}
		for _, depth := range []int{1, 0, 9995} {
			w, wfp, want := scanNested(string(data), depth, 0, nil)
			for range 2 {
				g, fp, got := scanNested(string(data), depth, 0, st)
				decoded := w != nil && strings.HasPrefix(want, "<nil> /")
				if got != want || fp != wfp || (g == nil) != (w == nil) || decoded && !sameGraph(g, w) {
					t.Fatalf("%q at depth %d: with a store %+v %016x %s, without %+v %016x %s", data, depth, g, fp, got, w, wfp, want)
				}
			}
		}
	})
}
