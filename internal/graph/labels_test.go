package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// fuzzLabelTree builds a tree from FuzzComponentLabels' input: vertex i+1
// hangs from shape[i] mod (i+1), every vertex is then renamed v → (v+rot)
// mod n, flip's bit 0 (bit 1) stores the even (odd) edges as (child,
// parent), and flip's bit 2 reverses the edge order. Weights come from the
// shape bytes, some of them -0.
func fuzzLabelTree(shape []byte, rot, flip uint8) (*Tree, error) {
	n := len(shape) + 1
	w := func(i int) float64 {
		b := shape[i%len(shape)] ^ byte(i)
		if b%13 == 0 {
			return math.Copysign(0, -1)
		}
		return 1 + float64(b)/3
	}
	nodeW := make([]float64, n)
	edges := make([]Edge, n-1)
	if n > 1 {
		for v := range nodeW {
			nodeW[(v+int(rot))%n] = w(v)
		}
		for i, b := range shape {
			u, v := (int(b)%(i+1)+int(rot))%n, (i+1+int(rot))%n
			if flip>>(i%2)&1 != 0 {
				u, v = v, u
			}
			edges[i] = Edge{U: u, V: v, W: w(i + 7)}
		}
	}
	if flip&4 != 0 {
		slices.Reverse(edges)
	}
	return NewTree(nodeW, edges)
}

// fuzzLabelCut is the cut FuzzComponentLabels checks on m edges: edge i is
// cut when bit i of mask is set, bits past the mask repeat its last byte.
// mode 1 reverses the cut, 2 appends m, 3 prepends −1 and 4 repeats its last
// edge, so that modes 1–4 make an invalid cut whenever they change it.
func fuzzLabelCut(m int, mask []byte, mode uint8) []int {
	var cut []int
	for i := 0; i < m && len(mask) > 0; i++ {
		if mask[min(i/8, len(mask)-1)]>>(i%8)&1 != 0 {
			cut = append(cut, i)
		}
	}
	switch mode % 5 {
	case 1:
		slices.Reverse(cut)
	case 2:
		cut = append(cut, m)
	case 3:
		cut = append([]int{-1}, cut...)
	case 4:
		if len(cut) > 0 {
			cut = append(cut, cut[len(cut)-1])
		}
	}
	return cut
}

// ufLabels is the reference the walk over the rooted view is tested
// against: it unites the uncut edges of t in a union-find and numbers the
// sets by smallest member, returning each vertex's label and the number of
// sets. cut must be valid.
func ufLabels(t *Tree, cut []int) ([]int32, int) {
	uf := newUnionFind(len(t.NodeW))
	for i, e := range t.Edges {
		if _, in := slices.BinarySearch(cut, i); !in {
			uf.union(e.U, e.V)
		}
	}
	label := make([]int32, len(uf))
	for v := range label {
		label[v] = -1
	}
	k := 0
	for v := range label {
		r := uf.find(v)
		if label[r] < 0 {
			label[r] = int32(k)
			k++
		}
		label[v] = label[r]
	}
	return label, k
}

// ufMaxComponentWeight is the heaviest of the reference components, each
// summed in vertex order.
func ufMaxComponentWeight(t *Tree, cut []int) float64 {
	label, k := ufLabels(t, cut)
	ws := make([]float64, k)
	for v, l := range label {
		ws[l] += t.NodeW[v]
	}
	return MaxWeight(ws)
}

// FuzzComponentLabels checks that a tree's walk over its rooted view labels
// T − cut as the union-find reference does, frozen (the cached view) and
// unfrozen (a view built per call), and that a frozen tree gives every
// component answer its unfrozen Clone gives: the components, the bits of
// every weight, the contraction, and the error text of a bad cut.
func FuzzComponentLabels(f *testing.F) {
	path := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	star := make([]byte, 11)
	caterpillar := []byte{0, 1, 2, 3, 0, 1, 2, 3, 4, 4, 2}
	all, none := []byte{0xff, 0xff}, []byte{}
	f.Add(path, uint8(0), uint8(0), []byte{0x25, 0x04}, uint8(0))
	f.Add(path, uint8(5), uint8(3), []byte{0x5a}, uint8(0))
	f.Add(star, uint8(0), uint8(0), []byte{0x13}, uint8(0))
	f.Add(star, uint8(4), uint8(1), []byte{0x81, 0x02}, uint8(0)) // the centre is vertex 4, vertex 0 a leaf
	f.Add(caterpillar, uint8(3), uint8(2), []byte{0x31, 0x01}, uint8(0))
	f.Add(caterpillar, uint8(0), uint8(3|4), []byte{0x0c}, uint8(0))
	f.Add(path, uint8(2), uint8(1|4), none, uint8(0))
	f.Add(caterpillar, uint8(7), uint8(2), all, uint8(0))
	f.Add(star, uint8(1), uint8(0), all, uint8(0))
	f.Add([]byte{}, uint8(0), uint8(0), none, uint8(0))
	for mode := uint8(1); mode <= 4; mode++ {
		f.Add(caterpillar, uint8(1), uint8(1), []byte{0x49}, mode)
	}
	f.Fuzz(func(t *testing.T, shape []byte, rot, flip uint8, mask []byte, mode uint8) {
		if len(shape) > 300 {
			shape = shape[:300]
		}
		frozen, err := fuzzLabelTree(shape, rot, flip)
		if err != nil {
			t.Fatalf("fuzzLabelTree: %v", err)
		}
		plain := frozen.Clone()
		frozen.Freeze()
		cut := fuzzLabelCut(len(plain.Edges), mask, mode)
		if checkCut(cut, len(plain.Edges)) == nil {
			want, wantK := ufLabels(plain, cut)
			wantMax := ufMaxComponentWeight(plain, cut)
			for _, g := range []*Tree{plain, frozen} {
				label, k, _ := g.componentLabels(cut)
				if k != wantK || !slices.Equal(label, want) {
					t.Fatalf("labels(%v) frozen=%t: %v (%d), union-find %v (%d)", cut, g.Frozen(), label, k, want, wantK)
				}
				if got, _ := g.MaxComponentWeight(cut); math.Float64bits(got) != math.Float64bits(wantMax) {
					t.Fatalf("MaxComponentWeight(%v) frozen=%t: %v, union-find %v", cut, g.Frozen(), got, wantMax)
				}
			}
		}

		same := func(what string, a, b error) bool {
			t.Helper()
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("%s: frozen error %v, unfrozen %v", what, a, b)
			}
			return a == nil
		}
		sameBits := func(what string, a, b []float64) {
			t.Helper()
			if !slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatalf("%s: frozen %v, unfrozen %v", what, a, b)
			}
		}

		fc, ferr := frozen.Components(cut)
		pc, perr := plain.Components(cut)
		if same("Components", ferr, perr) {
			if !slices.EqualFunc(fc, pc, slices.Equal[[]int]) || len(fc) != len(cut)+1 {
				t.Fatalf("Components(%v): frozen %v, unfrozen %v", cut, fc, pc)
			}
		}
		fw, ferr := frozen.ComponentWeights(cut)
		pw, perr := plain.ComponentWeights(cut)
		if same("ComponentWeights", ferr, perr) {
			sameBits("ComponentWeights", fw, pw)
		}
		fm, ferr := frozen.ComponentMaxNodeWeights(cut)
		pm, perr := plain.ComponentMaxNodeWeights(cut)
		if same("ComponentMaxNodeWeights", ferr, perr) {
			sameBits("ComponentMaxNodeWeights", fm, pm)
		}
		fmax, ferr := frozen.MaxComponentWeight(cut)
		pmax, perr := plain.MaxComponentWeight(cut)
		if same("MaxComponentWeight", ferr, perr) {
			sameBits("MaxComponentWeight", []float64{fmax}, []float64{pmax})
		}

		fcon, ferr := frozen.Contract(cut)
		pcon, perr := plain.Contract(cut)
		if !same("Contract", ferr, perr) {
			return
		}
		sameBits("Contract NodeW", fcon.Tree.NodeW, pcon.Tree.NodeW)
		if !slices.Equal(fcon.Tree.Edges, pcon.Tree.Edges) || !slices.Equal(fcon.CutEdges, pcon.CutEdges) {
			t.Fatalf("Contract(%v): frozen %+v, unfrozen %+v", cut, fcon, pcon)
		}
	})
}

// TestMaxComponentWeightCutBelow: the heaviest component of T minus every
// edge lighter than b equals MaxComponentWeight of that cut and the
// union-find reference's bit for bit, on an unfrozen tree and on a frozen
// one, for b at 0, at and just above every edge weight, and at +Inf, on
// trees with and without −0 weights.
func TestMaxComponentWeightCutBelow(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		plain := lcgTree(1+int(seed*7%90), seed, seed%2 == 1)
		frozen := plain.Clone()
		frozen.Freeze()
		bs := []float64{0, math.Inf(1)}
		for _, e := range plain.Edges {
			bs = append(bs, e.W, math.Nextafter(e.W, math.Inf(1)))
		}
		for _, b := range bs {
			var lighter []int
			for i, e := range plain.Edges {
				if e.W < b {
					lighter = append(lighter, i)
				}
			}
			want := ufMaxComponentWeight(plain, lighter)
			if got, err := plain.MaxComponentWeight(lighter); err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: MaxComponentWeight(%v) = %v, %v; union-find %v", seed, lighter, got, err, want)
			}
			for _, g := range []*Tree{plain, frozen} {
				if got := g.MaxComponentWeightCutBelow(b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d b=%v frozen=%t: %v, MaxComponentWeight(%v) = %v", seed, b, g.Frozen(), got, lighter, want)
				}
			}
		}
	}
}

// BenchmarkComponentWeights times the component weights and the heaviest
// component of a 5k-node tree cut at every seventh edge, on an unfrozen
// tree (rooted per call) and on a frozen one with its rooted view built.
func BenchmarkComponentWeights(b *testing.B) {
	tr := lcgTree(5000, 7, false)
	var cut []int
	for i := 0; i < len(tr.Edges); i += 7 {
		cut = append(cut, i)
	}
	frozen := tr.Clone()
	frozen.Freeze()
	frozen.Root0(nil)
	for _, c := range []struct {
		name string
		tr   *Tree
	}{{"unfrozen", tr}, {"frozen", frozen}} {
		b.Run("ComponentWeights/n=5000/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.tr.ComponentWeights(cut); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("MaxComponentWeight/n=5000/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.tr.MaxComponentWeight(cut); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
