package codec

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// FuzzCodec drives Decode with arbitrary bytes: malformed input must return
// an error without panicking, and any input that decodes must survive an
// encode→decode round trip bit-for-bit (same graph, same fingerprint).
func FuzzCodec(f *testing.F) {
	seed := func(g any) {
		enc, err := Append(nil, g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	p, _ := graph.NewPath([]float64{1, 2.5, 0, 7}, []float64{3, 0, 0.125})
	seed(p)
	tr, _ := graph.NewTree([]float64{1, 2, 3}, []graph.Edge{{U: 0, V: 1, W: 4}, {U: 1, V: 2, W: 5}})
	seed(tr)
	g, _ := graph.NewGraph([]float64{1, 2}, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 2}})
	seed(g)
	f.Add([]byte("PGB1"))
	f.Add([]byte("PGB1\x01\x01\x00\x00"))
	f.Add([]byte("PGB1\x01\x02\xff\xff\xff\xff\x0f\x00"))
	f.Add([]byte("not the format at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, fp, rest, err := Decode(data, Options{MaxNodes: 1 << 16})
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
		}
		consumed := data[:len(data)-len(rest)]
		enc, err := Append(nil, g)
		if err != nil {
			t.Fatalf("re-encode of decoded graph failed: %v", err)
		}
		// Uvarint counts have a unique minimal encoding and the encoder
		// produces it, so re-encoding reproduces the consumed bytes exactly
		// unless the input used a padded varint. Compare semantically instead:
		// decode the re-encoding and require the same graph and fingerprint.
		g2, fp2, rest2, err := Decode(enc, Options{MaxNodes: 1 << 16})
		if err != nil {
			t.Fatalf("decode(encode(decode(x))) failed: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-decode left %d bytes", len(rest2))
		}
		if fp2 != fp {
			t.Fatalf("fingerprint changed across round trip: %016x != %016x", fp2, fp)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatalf("graph changed across round trip:\n  first  %+v\n  second %+v", g, g2)
		}
		wantFP, err := graph.Fingerprint(g)
		if err != nil {
			t.Fatalf("decoded graph not fingerprintable: %v", err)
		}
		if fp != wantFP {
			t.Fatalf("streamed fingerprint %016x != graph.Fingerprint %016x", fp, wantFP)
		}
		if bytes.Equal(consumed, enc) {
			// Canonical input: fine, common case.
			_ = consumed
		}
	})
}
