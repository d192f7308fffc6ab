package graph

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

func fpPath(t *testing.T, nodeW, edgeW []float64) uint64 {
	t.Helper()
	p, err := NewPath(nodeW, edgeW)
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	return FingerprintPath(p)
}

// TestFingerprintDeterministic: the same graph always hashes to the same
// value, including through Clone (which must be byte-for-byte equivalent).
func TestFingerprintDeterministic(t *testing.T) {
	p, err := NewPath([]float64{1, 2, 3, 4}, []float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if FingerprintPath(p) != FingerprintPath(p) {
		t.Error("fingerprint not deterministic across calls")
	}
	if FingerprintPath(p) != FingerprintPath(p.Clone()) {
		t.Error("fingerprint differs between a path and its clone")
	}
	tr, err := NewTree([]float64{1, 2, 3}, []Edge{{U: 0, V: 1, W: 5}, {U: 0, V: 2, W: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if FingerprintTree(tr) != FingerprintTree(tr.Clone()) {
		t.Error("fingerprint differs between a tree and its clone")
	}
}

// TestFingerprintSensitivity: every component of the canonical encoding must
// influence the hash — weights, topology, lengths, and the kind tag.
func TestFingerprintSensitivity(t *testing.T) {
	base := fpPath(t, []float64{1, 2, 3, 4}, []float64{10, 20, 30})
	variants := map[string]uint64{
		"node weight changed":  fpPath(t, []float64{1, 2, 3, 5}, []float64{10, 20, 30}),
		"edge weight changed":  fpPath(t, []float64{1, 2, 3, 4}, []float64{10, 20, 31}),
		"node order swapped":   fpPath(t, []float64{2, 1, 3, 4}, []float64{10, 20, 30}),
		"edge order swapped":   fpPath(t, []float64{1, 2, 3, 4}, []float64{20, 10, 30}),
		"shorter path":         fpPath(t, []float64{1, 2, 3}, []float64{10, 20}),
		"weight moved to edge": fpPath(t, []float64{1, 2, 3, 10}, []float64{4, 20, 30}),
	}
	for name, fp := range variants {
		if fp == base {
			t.Errorf("%s: fingerprint collided with base %016x", name, base)
		}
	}
}

// TestFingerprintKindSeparation: a path and its single-chain tree rendering
// are distinct inputs (different solvers accept them) and must not collide.
func TestFingerprintKindSeparation(t *testing.T) {
	p, err := NewPath([]float64{1, 2, 3}, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if FingerprintPath(p) == FingerprintTree(p.AsTree()) {
		t.Error("path fingerprint collides with its tree view")
	}
	g, err := NewGraph(p.AsTree().NodeW, p.AsTree().Edges)
	if err != nil {
		t.Fatal(err)
	}
	if FingerprintTree(p.AsTree()) == FingerprintGraph(g) {
		t.Error("tree fingerprint collides with the identical general graph")
	}
}

// TestFingerprintTreeTopology: same multiset of weights, different shape.
func TestFingerprintTreeTopology(t *testing.T) {
	nodeW := []float64{1, 1, 1, 1}
	chain, err := NewTree(nodeW, []Edge{{0, 1, 5}, {1, 2, 5}, {2, 3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	star, err := NewTree(nodeW, []Edge{{0, 1, 5}, {0, 2, 5}, {0, 3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if FingerprintTree(chain) == FingerprintTree(star) {
		t.Error("chain and star with identical weights collide")
	}
}

// TestFingerprintNegativeZero: -0.0 and +0.0 are the same weight and must be
// the same cache key.
func TestFingerprintNegativeZero(t *testing.T) {
	a := fpPath(t, []float64{1, 0, 3}, []float64{10, 20})
	b := fpPath(t, []float64{1, math.Copysign(0, -1), 3}, []float64{10, 20})
	if a != b {
		t.Errorf("+0.0 (%016x) and -0.0 (%016x) fingerprints differ", a, b)
	}
}

// TestFingerprintDispatch covers the any-typed entry point.
func TestFingerprintDispatch(t *testing.T) {
	p, err := NewPath([]float64{1, 2}, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Fingerprint(p)
	if err != nil {
		t.Fatalf("Fingerprint(*Path): %v", err)
	}
	if got != FingerprintPath(p) {
		t.Error("dispatch disagrees with FingerprintPath")
	}
	if _, err := Fingerprint(42); err == nil {
		t.Error("Fingerprint(42) should fail")
	}
}

// TestFingerprintCollisionSanity: pairwise-distinct fingerprints across a
// family of near-identical random-ish graphs — a weak but useful guard
// against encoding bugs (e.g. dropped length prefixes).
func TestFingerprintCollisionSanity(t *testing.T) {
	seen := make(map[uint64]string)
	record := func(name string, fp uint64) {
		if prev, dup := seen[fp]; dup {
			t.Fatalf("fingerprint collision: %s vs %s (%016x)", name, prev, fp)
		}
		seen[fp] = name
	}
	// Paths of every length 1..64 with position-dependent weights, plus a
	// one-weight perturbation of each.
	for n := 1; n <= 64; n++ {
		nodeW := make([]float64, n)
		edgeW := make([]float64, n-1)
		for i := range nodeW {
			nodeW[i] = float64(i%7) + 0.5
		}
		for i := range edgeW {
			edgeW[i] = float64(i%5) + 1.25
		}
		p, err := NewPath(nodeW, edgeW)
		if err != nil {
			t.Fatal(err)
		}
		record("path", FingerprintPath(p))
		nodeW[n/2] += 0.001
		q, err := NewPath(nodeW, edgeW)
		if err != nil {
			t.Fatal(err)
		}
		record("perturbed path", FingerprintPath(q))
	}
	if len(seen) != 2*64 {
		t.Fatalf("recorded %d fingerprints, want %d", len(seen), 2*64)
	}
}

// Fingerprints are representation-sensitive by design: they hash the
// declaration order of weights and edges, not the isomorphism class. A
// reversed path or a relabeled tree is the *same* abstract graph but a
// *different* input (cuts index into the declared edge order), so it must
// hash differently — a cached result for one representation would return
// cut indices that are wrong for the other. These tests pin that behavior
// down so a future "canonicalizing" change has to confront it explicitly.
func TestFingerprintRepresentationSensitivity(t *testing.T) {
	// A permuted-but-isomorphic path: reversing vertex order preserves the
	// graph up to isomorphism but changes the weight sequences.
	p, err := NewPath([]float64{1, 2, 3}, []float64{10, 20})
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	rev, err := NewPath([]float64{3, 2, 1}, []float64{20, 10})
	if err != nil {
		t.Fatalf("NewPath(rev): %v", err)
	}
	if FingerprintPath(p) == FingerprintPath(rev) {
		t.Error("reversed path hashes equal; fingerprints must be representation-sensitive")
	}
	// A palindromic path is bit-identical under reversal and must collide
	// with itself (the sensitivity is to representation, not orientation).
	pal, err := NewPath([]float64{1, 2, 1}, []float64{5, 5})
	if err != nil {
		t.Fatalf("NewPath(pal): %v", err)
	}
	palRev, err := NewPath([]float64{1, 2, 1}, []float64{5, 5})
	if err != nil {
		t.Fatalf("NewPath(palRev): %v", err)
	}
	if FingerprintPath(pal) != FingerprintPath(palRev) {
		t.Error("identical representations must hash equal")
	}

	// The same tree with edges declared in a different order: isomorphic —
	// identical, even — as a graph, but cut index i now names a different
	// edge, so the fingerprint must differ.
	tr, err := NewTree([]float64{1, 2, 3}, []Edge{{U: 0, V: 1, W: 10}, {U: 1, V: 2, W: 20}})
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	reordered, err := NewTree([]float64{1, 2, 3}, []Edge{{U: 1, V: 2, W: 20}, {U: 0, V: 1, W: 10}})
	if err != nil {
		t.Fatalf("NewTree(reordered): %v", err)
	}
	if FingerprintTree(tr) == FingerprintTree(reordered) {
		t.Error("edge-reordered tree hashes equal; cut indices would alias across cache entries")
	}

	// A vertex-relabeled tree (star centered at 0 vs. centered at 2):
	// isomorphic, different labels, different fingerprint.
	star0, err := NewTree([]float64{5, 1, 1}, []Edge{{U: 0, V: 1, W: 2}, {U: 0, V: 2, W: 3}})
	if err != nil {
		t.Fatalf("NewTree(star0): %v", err)
	}
	star2, err := NewTree([]float64{1, 1, 5}, []Edge{{U: 2, V: 1, W: 2}, {U: 2, V: 0, W: 3}})
	if err != nil {
		t.Fatalf("NewTree(star2): %v", err)
	}
	if FingerprintTree(star0) == FingerprintTree(star2) {
		t.Error("relabeled star hashes equal; fingerprints must see vertex identities")
	}

	// Endpoint order within one edge is also representation: (U,V) vs (V,U)
	// is the same undirected edge but a different declaration.
	swapped, err := NewTree([]float64{1, 2, 3}, []Edge{{U: 1, V: 0, W: 10}, {U: 1, V: 2, W: 20}})
	if err != nil {
		t.Fatalf("NewTree(swapped): %v", err)
	}
	if FingerprintTree(tr) == FingerprintTree(swapped) {
		t.Error("endpoint-swapped edge hashes equal; declaration order is part of the key")
	}
}

// fpTestPath is an n-node path with distinct, nonzero, non-round weights
// (deterministic; no zero, so no sign flip can land on the -0.0 rule).
func fpTestPath(n int) *Path {
	p := &Path{NodeW: make([]float64, n), EdgeW: make([]float64, n-1)}
	x := uint64(0x2545F4914F6CDD1D)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return 1 + float64(x>>11)/(1<<53)*99
	}
	for i := range p.NodeW {
		p.NodeW[i] = next()
	}
	for i := range p.EdgeW {
		p.EdgeW[i] = next()
	}
	return p
}

// fpTestTree is an n-node caterpillar over fpTestPath's weights.
func fpTestTree(n int) *Tree {
	p := fpTestPath(n)
	t := &Tree{NodeW: p.NodeW, Edges: make([]Edge, n-1)}
	for i := range t.Edges {
		t.Edges[i] = Edge{U: i / 2, V: i + 1, W: p.EdgeW[i]}
	}
	return t
}

// TestFingerprintBitFlips flips every bit of every weight of a 12-node path
// — a 26-word stream whose weights fill all four lanes, through the
// single-word and the whole-stripe paths, and a 2-word tail — and every
// bit of every edge weight and the low endpoint bits of a tree. Each flip
// must change the fingerprint.
func TestFingerprintBitFlips(t *testing.T) {
	p := fpTestPath(12)
	base := FingerprintPath(p)
	for _, ws := range [][]float64{p.NodeW, p.EdgeW} {
		for i := range ws {
			orig := ws[i]
			for bit := 0; bit < 64; bit++ {
				ws[i] = math.Float64frombits(math.Float64bits(orig) ^ 1<<bit)
				if FingerprintPath(p) == base {
					t.Errorf("path: flipping bit %d of weight %d (len %d) left the fingerprint unchanged", bit, i, len(ws))
				}
			}
			ws[i] = orig
		}
	}
	if FingerprintPath(p) != base {
		t.Fatal("restoring every weight did not restore the fingerprint")
	}

	tr := fpTestTree(11) // 2 + 11 + 1 + 3·10 = 44 words: stripes plus a misaligned edge start
	tbase := FingerprintTree(tr)
	for i := range tr.Edges {
		e := &tr.Edges[i]
		orig := *e
		for bit := 0; bit < 64; bit++ {
			e.W = math.Float64frombits(math.Float64bits(orig.W) ^ 1<<bit)
			if FingerprintTree(tr) == tbase {
				t.Errorf("tree: flipping bit %d of edge %d's weight left the fingerprint unchanged", bit, i)
			}
		}
		e.W = orig.W
		for bit := 0; bit < 4; bit++ {
			e.U, e.V = orig.U^1<<bit, orig.V
			if FingerprintTree(tr) == tbase {
				t.Errorf("tree: flipping bit %d of edge %d's U left the fingerprint unchanged", bit, i)
			}
			e.U, e.V = orig.U, orig.V^1<<bit
			if FingerprintTree(tr) == tbase {
				t.Errorf("tree: flipping bit %d of edge %d's V left the fingerprint unchanged", bit, i)
			}
		}
		*e = orig
	}
}

// TestFingerprintSwaps: exchanging two weights changes the fingerprint,
// whether the two sit in different lanes or, four words apart, in the same
// lane.
func TestFingerprintSwaps(t *testing.T) {
	p := fpTestPath(12)
	base := FingerprintPath(p)
	// Node weight i is stream word i+2, in lane (i+2) mod 4.
	for _, c := range []struct {
		name string
		i, j int
	}{{"different lanes", 2, 3}, {"different lanes, far apart", 1, 10}, {"same lane", 2, 6}, {"same lane, two stripes apart", 3, 11}} {
		p.NodeW[c.i], p.NodeW[c.j] = p.NodeW[c.j], p.NodeW[c.i]
		if FingerprintPath(p) == base {
			t.Errorf("%s: swapping node weights %d and %d left the fingerprint unchanged", c.name, c.i, c.j)
		}
		p.NodeW[c.i], p.NodeW[c.j] = p.NodeW[c.j], p.NodeW[c.i]
	}
}

// TestHasherSplitsMatchBatch feeds a Hasher the canonical stream split at
// every offset 0–7, mixing Word, Weight, Weights and Edges calls: every
// split must equal the batch fingerprint.
func TestHasherSplitsMatchBatch(t *testing.T) {
	p := fpTestPath(23)
	tr := fpTestTree(23)
	g := &Graph{NodeW: tr.NodeW, Edges: tr.Edges}
	for off := 0; off <= 7; off++ {
		h := NewPathHasher()
		h.Word(uint64(len(p.NodeW)))
		h.Weights(p.NodeW[:off])
		h.Weight(p.NodeW[off])
		h.Weights(p.NodeW[off+1:])
		h.Word(uint64(len(p.EdgeW)))
		for lo := 0; lo < len(p.EdgeW); lo += off + 1 {
			h.Weights(p.EdgeW[lo:min(lo+off+1, len(p.EdgeW))])
		}
		if got, want := h.Sum(), FingerprintPath(p); got != want {
			t.Errorf("path split at %d: hasher %016x != FingerprintPath %016x", off, got, want)
		}

		for _, c := range []struct {
			name  string
			h     Hasher
			nodeW []float64
			edges []Edge
			want  uint64
		}{
			{"tree", NewTreeHasher(), tr.NodeW, tr.Edges, FingerprintTree(tr)},
			{"graph", NewGraphHasher(), g.NodeW, g.Edges, FingerprintGraph(g)},
		} {
			h := c.h
			h.Word(uint64(len(c.nodeW)))
			for _, w := range c.nodeW[:off] {
				h.Weight(w)
			}
			h.Weights(c.nodeW[off:])
			h.Word(uint64(len(c.edges)))
			h.Edges(c.edges[:off])
			e := c.edges[off]
			h.Word(uint64(e.U))
			h.Word(uint64(e.V))
			h.Weight(e.W)
			h.Edges(c.edges[off+1:])
			if got := h.Sum(); got != c.want {
				t.Errorf("%s split at %d: hasher %016x != batch %016x", c.name, off, got, c.want)
			}
		}
	}
}

// xxh64Reference is XXH64 with seed 0 written from the specification over
// a byte slice whose length is a multiple of 8: the yardstick the streaming
// Hasher is checked against.
func xxh64Reference(b []byte) uint64 {
	p1, p2 := xxPrime1, xxPrime2
	total := uint64(len(b))
	h := xxPrime5
	if len(b) >= 32 {
		v := [4]uint64{p1 + p2, p2, 0, -p1}
		for ; len(b) >= 32; b = b[32:] {
			for i := range v {
				v[i] = xxRound(v[i], binary.LittleEndian.Uint64(b[8*i:]))
			}
		}
		h = bits.RotateLeft64(v[0], 1) + bits.RotateLeft64(v[1], 7) +
			bits.RotateLeft64(v[2], 12) + bits.RotateLeft64(v[3], 18)
		for _, lane := range v {
			h = (h^xxRound(0, lane))*xxPrime1 + xxPrime4
		}
	}
	h += total
	for ; len(b) >= 8; b = b[8:] {
		h ^= xxRound(0, binary.LittleEndian.Uint64(b))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

// TestFingerprintIsXXH64: the empty stream hashes to XXH64's published
// empty-input value, and every path length 1–40 equals the reference
// implementation over the little-endian bytes of the canonical stream.
func TestFingerprintIsXXH64(t *testing.T) {
	empty := Hasher{v: xxSeed0}
	if got := empty.Sum(); got != 0xef46db3751d8e999 {
		t.Fatalf("empty stream = %016x, want XXH64(\"\") = ef46db3751d8e999", got)
	}
	if xxh64Reference(nil) != 0xef46db3751d8e999 {
		t.Fatal("reference disagrees with XXH64 on the empty input")
	}
	for n := 1; n <= 40; n++ {
		p := fpTestPath(n)
		var b []byte
		for _, w := range []uint64{fpTagPath, uint64(n)} {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		for _, w := range p.NodeW {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(n-1))
		for _, w := range p.EdgeW {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
		if got, want := FingerprintPath(p), xxh64Reference(b); got != want {
			t.Errorf("%d-node path: fingerprint %016x, reference XXH64 %016x", n, got, want)
		}
	}
}

// TestFingerprintPinned pins the values of one small path, tree and graph,
// so an accidental change of the hash or the canonical stream fails here
// and not only in the server goldens. Changing these values changes every
// cache key and cluster owner.
func TestFingerprintPinned(t *testing.T) {
	p := &Path{NodeW: []float64{1, 2.5, 3, 4, 0.125}, EdgeW: []float64{10, 20, 30, 40}}
	tr := &Tree{NodeW: []float64{5, 1, 1, 2}, Edges: []Edge{{U: 0, V: 1, W: 2}, {U: 0, V: 2, W: 3}, {U: 2, V: 3, W: 0.5}}}
	g := &Graph{NodeW: []float64{1, 2, 3}, Edges: []Edge{{U: 0, V: 1, W: 4}, {U: 1, V: 2, W: 5}, {U: 2, V: 0, W: 6}}}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"path", FingerprintPath(p), 0x7ebd301306df87e7},
		{"tree", FingerprintTree(tr), 0x3a5a86e9666e9438},
		{"graph", FingerprintGraph(g), 0x5e455d46804e6f76},
	} {
		if c.got != c.want {
			t.Errorf("%s fingerprint = %016x, pinned %016x", c.name, c.got, c.want)
		}
	}
}

// TestFingerprintAllocs: fingerprinting allocates nothing.
func TestFingerprintAllocs(t *testing.T) {
	p, tr := fpTestPath(20000), fpTestTree(5000)
	if avg := testing.AllocsPerRun(20, func() { FingerprintPath(p) }); avg != 0 {
		t.Errorf("FingerprintPath allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { FingerprintTree(tr) }); avg != 0 {
		t.Errorf("FingerprintTree allocates %.1f/op, want 0", avg)
	}
}

// fpSink keeps the benchmarked fingerprints live.
var fpSink uint64

func BenchmarkFingerprintPath20k(b *testing.B) {
	p := fpTestPath(20000)
	b.SetBytes(8 * int64(len(p.NodeW)+len(p.EdgeW)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpSink = FingerprintPath(p)
	}
}

func BenchmarkFingerprintTree5k(b *testing.B) {
	tr := fpTestTree(5000)
	b.SetBytes(8*int64(len(tr.NodeW)) + 24*int64(len(tr.Edges)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpSink = FingerprintTree(tr)
	}
}
