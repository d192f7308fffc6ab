package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// leWords encodes words as the little-endian bytes FillWeights reads.
func leWords(words ...uint64) []byte {
	b := make([]byte, 0, 8*len(words))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// TestWeightBitTest holds FillWeights' one-compare validity test to
// validWeight, through both its stripe loop and its word-at-a-time head,
// on every class of float64 and on 10⁶ random bit patterns.
func TestWeightBitTest(t *testing.T) {
	const sign = 1 << 63
	classes := []uint64{
		0, sign, // ±0
		1, sign | 1, // ± smallest subnormal
		0x000FFFFFFFFFFFFF, sign | 0x000FFFFFFFFFFFFF, // ± largest subnormal
		0x0010000000000000, sign | 0x0010000000000000, // ± smallest normal
		0x7FEFFFFFFFFFFFFF, sign | 0x7FEFFFFFFFFFFFFF, // ± largest finite
		0x7FF0000000000000, sign | 0x7FF0000000000000, // ±Inf
		0x7FF8000000000000, sign | 0x7FF8000000000000, // ± quiet NaN
		0x7FF0000000000001, sign | 0x7FF0000000000001, // ± signalling NaN
		0x7FF4DEADBEEF0001, sign | 0x7FFCDEADBEEF0001, // NaNs with payloads
		math.Float64bits(math.NaN()), math.Float64bits(1), math.Float64bits(-1),
	}
	check := func(b uint64) {
		want := validWeight(math.Float64frombits(b))
		ok := math.Float64bits(1)
		for j := range 4 {
			words := []uint64{ok, ok, ok, ok}
			words[j] = b
			var stripe Hasher // nothing pending: the stripe loop
			if got := stripe.FillWeights(make([]float64, 4), leWords(words...)); (got == -1) != want || (!want && got != j) {
				t.Fatalf("%#016x at %d of a stripe: FillWeights = %d, validWeight = %v", b, j, got, want)
			}
		}
		head := NewPathHasher() // one word pending: the head loop
		if got := head.FillWeights(make([]float64, 1), leWords(b)); (got == -1) != want {
			t.Fatalf("%#016x alone: FillWeights = %d, validWeight = %v", b, got, want)
		}
	}
	for _, b := range classes {
		check(b)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for range 1_000_000 {
		b := r.Uint64()
		if r.IntN(4) == 0 {
			b |= 0x7FF0000000000000 // all-ones exponent: ±Inf and NaNs
		}
		check(b)
	}
}

// FuzzFillWeights holds the one-pass kernel to the three passes it
// replaces: fill, checkWeights, then Hasher.Weights. pending words folded
// in beforehand (0–3) shift the weights across the head, stripe and tail
// branches.
func FuzzFillWeights(f *testing.F) {
	f.Add(leWords(0x3FF0000000000000, 0x4000000000000000, 1<<63, 7), uint8(0))
	f.Add(leWords(1, 2, 3, 4, 5, 6, 7, 8, 9), uint8(1))
	f.Add(leWords(1, 2, 3, 4, 5, 0x7FF0000000000000, 7, 8, 9), uint8(2))
	f.Add(leWords(1, 1<<63|1, 3), uint8(3))
	f.Add([]byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, src []byte, pending uint8) {
		n := len(src) / 8
		want := make([]float64, n)
		for i := range want {
			want[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
		ref, got := NewTreeHasher(), NewTreeHasher()
		for i := range pending % 4 {
			ref.Word(uint64(i) + 100)
			got.Word(uint64(i) + 100)
		}
		dst := make([]float64, n)
		bad := got.FillWeights(dst, src)
		if want := slices.IndexFunc(want, func(w float64) bool { return !validWeight(w) }); bad != want {
			t.Fatalf("FillWeights = %d, first invalid weight at %d", bad, want)
		}
		stored := n // up to and including the first invalid weight
		if bad >= 0 {
			stored = bad + 1
		}
		if !reflect.DeepEqual(bitsOf(dst[:stored]), bitsOf(want[:stored])) {
			t.Fatal("FillWeights stored different bits")
		}
		werr := checkWeights(nil, "w", want, nil)
		if gerr := checkWeights(new(Hasher), "w", make([]float64, n), src); fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("one-pass error %v, checkWeights %v", gerr, werr)
		}
		if werr == nil {
			ref.Weights(want)
			if got.Sum() != ref.Sum() {
				t.Fatalf("Sum %016x, Weights gives %016x", got.Sum(), ref.Sum())
			}
		}
	})
}

func bitsOf(ws []float64) []uint64 {
	out := make([]uint64, len(ws))
	for i, w := range ws {
		out[i] = math.Float64bits(w)
	}
	return out
}

// TestFillConstructorsMatchNew: the Fill constructors build what NewPath,
// NewTree and NewGraph build, with graph.Fingerprint's fingerprint, and
// fail with their errors.
func TestFillConstructorsMatchNew(t *testing.T) {
	nz := math.Copysign(0, -1)
	cases := []struct {
		nodeW, edgeW []float64
		edges        []Edge
	}{
		{nodeW: []float64{1}},
		{nodeW: []float64{1, 2, nz, 4, 5, 6}, edgeW: []float64{nz, 1, 2, 3, 4}},
		{nodeW: []float64{1, 2, 3}, edgeW: []float64{1, -2}},
		{nodeW: []float64{1, math.Inf(1), 3}, edgeW: []float64{1, 2}},
		{nodeW: nil},
		{nodeW: []float64{1, 2}, edgeW: []float64{1, 2}},
		{nodeW: []float64{1, 2, 3, 4, 5}, edges: []Edge{{0, 1, 1}, {1, 2, nz}, {1, 3, 2}, {3, 4, 1}}},
		{nodeW: []float64{1, 2, 3}, edges: []Edge{{0, 1, 1}, {1, 1, 2}}},
		{nodeW: []float64{1, 2, 3}, edges: []Edge{{0, 1, 1}, {1, 2, math.NaN()}}},
		{nodeW: []float64{1, -2, 3}, edges: []Edge{{0, 1, 1}, {1, 2, math.NaN()}}},
		{nodeW: []float64{1, 2, 3}, edges: []Edge{{0, 1, 1}, {1, 0, 2}}},
		{nodeW: []float64{1, 2, 3}, edges: []Edge{{0, 5, 1}, {1, 2, 2}}},
	}
	same := func(what string, got any, gfp uint64, gerr error, want any, werr error) {
		t.Helper()
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("%s: error %v, want %v", what, gerr, werr)
		}
		if werr != nil {
			return
		}
		wfp, _ := Fingerprint(want)
		if !reflect.DeepEqual(got, want) || gfp != wfp {
			t.Fatalf("%s: got %+v (%016x), want %+v (%016x)", what, got, gfp, want, wfp)
		}
	}
	for _, c := range cases {
		nodeW := leWords(bitsOf(c.nodeW)...)
		p, pfp, perr := FillPath(nodeW, leWords(bitsOf(c.edgeW)...))
		wp, wperr := NewPath(c.nodeW, c.edgeW)
		same("path", p, pfp, perr, wp, wperr)
		tr, tfp, terr := FillTree(nodeW, append([]Edge(nil), c.edges...))
		wt, wterr := NewTree(c.nodeW, c.edges)
		same("tree", tr, tfp, terr, wt, wterr)
		g, gfp, gerr := FillGraph(nodeW, append([]Edge(nil), c.edges...))
		wg, wgerr := NewGraph(c.nodeW, c.edges)
		same("graph", g, gfp, gerr, wg, wgerr)
	}
}
