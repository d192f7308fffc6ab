package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sync"

	"repro/internal/codec"
	"repro/internal/graph"
)

// Workload generation. Every input derives from the -seed flag through one
// PCG stream per workload, so a seed names one byte-identical op sequence on
// every machine and every commit; the daemon receives only these generated
// inputs.

// route is the HTTP surface an op exercises.
type route int

const (
	routeSolve route = iota // POST /v1/solve
	routeBatch              // POST /v1/batch
	routeJob                // POST /v1/jobs, SSE to terminal, GET /v1/jobs/{id}
)

func (r route) String() string {
	switch r {
	case routeSolve:
		return "solve"
	case routeBatch:
		return "batch"
	default:
		return "job"
	}
}

// input is one generated task graph plus what requests and checks need of it.
type input struct {
	path  *graph.Path // exactly one of path and tree is set
	tree  *graph.Tree
	fp    uint64  // graph.Fingerprint, echoed by every response
	wmax  float64 // heaviest task
	total float64 // summed task weight
	bin   []byte  // PGB1 encoding

	jsonOnce sync.Once
	jsonEnc  []byte
}

func newInput(g any) *input {
	in := &input{}
	switch g := g.(type) {
	case *graph.Path:
		in.path = g
		in.wmax, in.total = g.MaxNodeWeight(), g.TotalNodeWeight()
	case *graph.Tree:
		in.tree = g
		in.wmax, in.total = g.MaxNodeWeight(), g.TotalNodeWeight()
	}
	var err error
	if in.fp, err = graph.Fingerprint(g); err != nil {
		panic(err) // generated graphs are paths or trees by construction
	}
	if in.bin, err = codec.Append(nil, g); err != nil {
		panic(err)
	}
	return in
}

func (in *input) graph() any {
	if in.path != nil {
		return in.path
	}
	return in.tree
}

func (in *input) numEdges() int {
	if in.path != nil {
		return len(in.path.EdgeW)
	}
	return len(in.tree.Edges)
}

func (in *input) edgeWeight(e int) float64 {
	if in.path != nil {
		return in.path.EdgeW[e]
	}
	return in.tree.Edges[e].W
}

// json returns the graph-JSON envelope, encoded on first use.
func (in *input) json() []byte {
	in.jsonOnce.Do(func() {
		var buf bytes.Buffer
		if err := graph.WriteJSON(&buf, in.graph()); err != nil {
			panic(err)
		}
		in.jsonEnc = bytes.TrimSpace(buf.Bytes())
	})
	return in.jsonEnc
}

// weight draws a task or edge weight, uniform on [1, 100).
func weight(r *rand.Rand) float64 { return 1 + 99*r.Float64() }

func newPath(r *rand.Rand, n int) *input {
	nw := make([]float64, n)
	ew := make([]float64, n-1)
	for i := range nw {
		nw[i] = weight(r)
	}
	for i := range ew {
		ew[i] = weight(r)
	}
	p, err := graph.NewPathOwned(nw, ew)
	if err != nil {
		panic(err)
	}
	return newInput(p)
}

// newTree draws a random recursive tree: vertex i hangs off a uniformly
// chosen earlier vertex, through edge i−1.
func newTree(r *rand.Rand, n int) *input {
	nw := make([]float64, n)
	for i := range nw {
		nw[i] = weight(r)
	}
	es := make([]graph.Edge, n-1)
	for i := 1; i < n; i++ {
		es[i-1] = graph.Edge{U: r.IntN(i), V: i, W: weight(r)}
	}
	t, err := graph.NewTreeOwned(nw, es)
	if err != nil {
		panic(err)
	}
	return newInput(t)
}

func newPaths(r *rand.Rand, count, n int) []*input {
	out := make([]*input, count)
	for i := range out {
		out[i] = newPath(r, n)
	}
	return out
}

func newTrees(r *rand.Rand, count, n int) []*input {
	out := make([]*input, count)
	for i := range out {
		out[i] = newTree(r, n)
	}
	return out
}

// item is one solve request.
type item struct {
	in     *input
	solver string
	k      float64
	ratio  string // path workloads: K as a multiple of the heaviest task
	verify bool
}

func (it *item) key() string {
	return fmt.Sprintf("%016x|%s|%016x|%t", it.in.fp, it.solver, math.Float64bits(it.k), it.verify)
}

// partCount reports whether the solver reads K as a component count rather
// than a weight bound.
func partCount(solver string) bool {
	return solver == "maxmin-tree" || solver == "summax-tree" || solver == "maxmin-path"
}

// pathRatios are the K regimes of the path workloads, as multiples of the
// heaviest task: components of one or two tasks (many short prime subpaths,
// q near 1), a handful of tasks, and dozens of tasks (q in the tens). The
// paper's O(n + p log q) cost splits differently in each.
var pathRatios = []struct {
	label string
	v     float64
}{{"1.2", 1.2}, {"4", 4}, {"20", 20}}

// pathItem is a bandwidth solve at K = ratio × heaviest task, nudged by
// uniq·2⁻²⁰ so that each uniq names its own cache key while the instance
// stays practically the same.
func pathItem(in *input, ratio, uniq int) item {
	rt := pathRatios[ratio%len(pathRatios)]
	return item{
		in:     in,
		solver: "bandwidth",
		k:      rt.v * in.wmax * (1 + float64(uniq)/(1<<20)),
		ratio:  rt.label,
	}
}

// op is one closed-loop operation: a /v1/solve, a /v1/batch call, or a job
// round trip.
type op struct {
	id     int
	route  route
	json   bool   // JSON request body; binary (PSV1/PBT1) otherwise
	items  []item // one for solve and job, batchSize for batch
	node   int    // the daemon it is sent to (cluster-2node: 0 or 1)
	repeat bool   // reuses the key(s) of an earlier op
}

// workload is a generated traffic mix.
type workload struct {
	name   string
	nodes  int  // daemons to start
	warm   []op // set-up traffic, checked but not measured
	ops    []op
	reused map[string]bool // item keys sent more than once
}

// spec describes one workload of BENCHMARK.json.
type spec struct {
	name string
	// opsPerSecond is the rate measured on the recorded host (README); the
	// op count is opsPerSecond × -seconds, fixed before the run, so every
	// commit does identical work and fills the cache identically.
	opsPerSecond float64
	gen          func(r *rand.Rand, n int) *workload
}

var specs = []spec{
	{"json-hit", 165, genJSONHit},
	{"bin-miss-path", 550, genBinMissPath},
	{"tree-routes", 95, genTreeRoutes},
	{"cluster-2node", 490, genCluster},
}

func specOf(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// opCount sizes a run: the workload's measured rate times the requested
// seconds, at least one op.
func (s spec) opCount(seconds float64) int {
	return max(int(math.Round(s.opsPerSecond*seconds)), 1)
}

// streamOf names a workload's PCG stream: every workload draws its own
// sequence from a seed.
func streamOf(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// generate builds the workload's inputs and op sequence from the seed.
func generate(s spec, seed uint64, n int) *workload {
	w := s.gen(rand.New(rand.NewPCG(seed, streamOf(s.name))), n)
	w.name = s.name
	for i := range w.ops {
		w.ops[i].id = i
	}
	count := map[string]int{}
	for _, ops := range [][]op{w.warm, w.ops} {
		for _, o := range ops {
			for i := range o.items {
				count[o.items[i].key()]++
				if o.json {
					o.items[i].in.json() // encode now, not while measuring
				}
			}
		}
	}
	w.reused = map[string]bool{}
	for k, c := range count {
		if c > 1 {
			w.reused[k] = true
		}
	}
	return w
}

// deck deals cards in seeded random order, each pass dealing every card
// once, so a workload's mix holds exactly rather than on average: a seed
// varies the inputs and their order, not the composition of the work.
type deck[T any] struct {
	r           *rand.Rand
	cards, left []T
}

func newDeck[T any](r *rand.Rand, cards ...T) *deck[T] { return &deck[T]{r: r, cards: cards} }

// cards repeats one card n times, for building decks.
func cards[T any](n int, card T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = card
	}
	return out
}

func (d *deck[T]) deal() T {
	if len(d.left) == 0 {
		d.left = append(d.left[:0], d.cards...)
		d.r.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	c := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return c
}

// warmOps is the size of each workload's warm phase: traffic that runs
// before timing starts, so the measured phase meets a daemon whose heap,
// caches and connections are in use, and setup_s weighs work rather than
// process start alone.
const warmOps = 32

// json-hit: JSON bandwidth solves on 5,000-node paths over 32 (graph, K)
// keys that the warm phase caches, so nearly every request is a hit: the
// daemon decodes, fingerprints, looks up and replays, and never solves.
func genJSONHit(r *rand.Rand, n int) *workload {
	graphs := newPaths(r, 8, 5000)
	keys := make([]item, warmOps)
	for j := range keys {
		keys[j] = pathItem(graphs[j%len(graphs)], j, j)
	}
	w := &workload{nodes: 1}
	for _, k := range keys {
		w.warm = append(w.warm, op{route: routeSolve, json: true, items: []item{k}})
	}
	d := newDeck(r, keys...)
	for i := 0; i < n; i++ {
		w.ops = append(w.ops, op{route: routeSolve, json: true, repeat: true, items: []item{d.deal()}})
	}
	return w
}

// missPathLen sizes bin-miss-path's graphs. Every result stays in the
// daemon's cache, which is bounded by entry count (4,096 by default): at
// 10,000 nodes a full cache holds about 130 MiB of frames, so a run of any
// length fills it, evicts, and keeps the daemon near 300 MiB.
const missPathLen = 10000

// bin-miss-path: binary bandwidth solves on 10,000-node paths, every key
// new, cycling K through the three ratios: the solver dominates and every
// result lands in the entry-bounded cache.
func genBinMissPath(r *rand.Rand, n int) *workload {
	graphs := newPaths(r, 8, missPathLen)
	warmG := newPath(r, missPathLen)
	w := &workload{nodes: 1}
	for i := 0; i < warmOps; i++ {
		w.warm = append(w.warm, op{route: routeSolve, items: []item{pathItem(warmG, i, i)}})
	}
	for i := 0; i < n; i++ {
		w.ops = append(w.ops, op{route: routeSolve, items: []item{pathItem(graphs[i%len(graphs)], i, i+1)}})
	}
	return w
}

const batchSize = 8

var treeSolvers = []string{"bottleneck", "minproc", "partition-tree", "maxmin-tree"}

// treeGen draws tree-routes items. Part-count keys are kept distinct (their
// K is a small integer, so random draws would collide) unless the key space
// runs out.
type treeGen struct {
	r          *rand.Rand
	big, small []*input
	solvers    *deck[string]
	verify     *deck[bool]
	parts      *deck[int] // summax-tree part counts; cost grows steeply with them
	used       map[string]bool
}

func newTreeGen(r *rand.Rand, big, small []*input) *treeGen {
	return &treeGen{r: r, big: big, small: small,
		solvers: newDeck(r, treeSolvers...),
		verify:  newDeck(r, true, false),
		parts:   newDeck(r, 4, 5, 6, 7, 8, 9, 10),
		used:    map[string]bool{}}
}

func (g *treeGen) fresh(draw func() item) item {
	var it item
	for try := 0; try < 16; try++ {
		if it = draw(); !g.used[it.key()] {
			break
		}
	}
	g.used[it.key()] = true
	return it
}

func (g *treeGen) solveItem() item {
	solver, verify := g.solvers.deal(), g.verify.deal()
	return g.fresh(func() item {
		in := g.big[g.r.IntN(len(g.big))]
		it := item{in: in, solver: solver, verify: verify}
		if partCount(solver) {
			it.k = float64(2 + g.r.IntN(63))
		} else {
			it.k = in.wmax * (3 + 27*g.r.Float64())
		}
		return it
	})
}

func (g *treeGen) jobItem() item {
	parts := float64(g.parts.deal())
	return g.fresh(func() item {
		return item{in: g.small[g.r.IntN(len(g.small))], solver: "summax-tree", k: parts}
	})
}

func (g *treeGen) batchItems() []item {
	items := make([]item, batchSize)
	for i := range items {
		items[i] = g.solveItem()
	}
	return items
}

// tree-routes: 5,000-node random trees through three routes — 60% /v1/solve
// (half JSON, half binary, verify on half), 25% binary /v1/batch of eight,
// 15% summax-tree jobs on 1,000-node trees — with 30% of each route's ops
// repeating an earlier op of that route.
func genTreeRoutes(r *rand.Rand, n int) *workload {
	g := newTreeGen(r, newTrees(r, 16, 5000), newTrees(r, 96, 1000))
	warm := newTreeGen(r, newTrees(r, 2, 5000), newTrees(r, 2, 1000))
	w := &workload{nodes: 1}
	for i := 0; i < warmOps/4; i++ {
		w.warm = append(w.warm,
			op{route: routeSolve, json: true, items: []item{warm.solveItem()}},
			op{route: routeSolve, items: []item{warm.solveItem()}},
			op{route: routeBatch, items: warm.batchItems()},
			op{route: routeJob, items: []item{warm.jobItem()}})
	}
	routes := newDeck(r, append(append(cards(12, routeSolve), cards(5, routeBatch)...), cards(3, routeJob)...)...)
	encodings := newDeck(r, true, false)
	var prev [3][]op
	var repeats [3]*deck[bool]
	for i := 0; i < n; i++ {
		o := op{route: routes.deal()}
		if repeats[o.route] == nil {
			repeats[o.route] = newDeck(r, append(cards(3, true), cards(7, false)...)...)
		}
		if repeat := repeats[o.route].deal(); repeat && len(prev[o.route]) > 0 {
			o = prev[o.route][r.IntN(len(prev[o.route]))]
			o.repeat = true
		} else {
			switch o.route {
			case routeSolve:
				o.json = encodings.deal()
				o.items = []item{g.solveItem()}
			case routeBatch:
				o.items = g.batchItems()
			case routeJob:
				o.items = []item{g.jobItem()}
			}
			prev[o.route] = append(prev[o.route], o)
		}
		w.ops = append(w.ops, o)
	}
	return w
}

// clusterRatio is cluster-2node's K: 20 × the heaviest task (pathRatios[2]).
// Its cuts are few, so each cached frame is small: both nodes cache every
// new key, and two full entry-bounded caches stay near 100 MiB each.
const clusterRatio = 2

// cluster-2node: two daemons, binary bandwidth on 20,000-node paths. Two of
// every three steps send a new key to one node and then to the other: the
// first request is solved by the key's owner, locally or forwarded there,
// and the second is answered from a cache, the owner's own or through a
// forward to it. So every new key crosses the cluster once, with its solve
// or with its cached frame. The third step sends two earlier keys, one to
// each node. A third of the requests carry a key the cluster has not seen.
func genCluster(r *rand.Rand, n int) *workload {
	graphs := newPaths(r, 8, 20000)
	warmG := newPath(r, 20000)
	w := &workload{nodes: 2}
	for i := 0; i < warmOps/2; i++ {
		it := pathItem(warmG, clusterRatio, i)
		w.warm = append(w.warm, op{route: routeSolve, items: []item{it}, node: i % 2},
			op{route: routeSolve, items: []item{it}, node: 1 - i%2, repeat: true})
	}
	newStep := newDeck(r, true, true, false)
	first := newDeck(r, 0, 1)
	var fresh []item
	for len(w.ops) < n {
		if isNew := newStep.deal(); isNew || len(fresh) == 0 {
			it := pathItem(graphs[len(fresh)%len(graphs)], clusterRatio, len(fresh)+1)
			fresh = append(fresh, it)
			a := first.deal()
			w.ops = append(w.ops, op{route: routeSolve, items: []item{it}, node: a},
				op{route: routeSolve, items: []item{it}, node: 1 - a, repeat: true})
			continue
		}
		for node := 0; node < 2; node++ {
			w.ops = append(w.ops, op{route: routeSolve, items: []item{fresh[r.IntN(len(fresh))]}, node: node, repeat: true})
		}
	}
	w.ops = w.ops[:n]
	return w
}

// digest is a canonical byte encoding of the op sequence and the graphs it
// carries (through their fingerprints): equal digests mean identical work.
func (w *workload) digest() []byte {
	var b []byte
	flag := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	for _, ops := range [][]op{w.warm, w.ops} {
		b = binary.AppendUvarint(b, uint64(len(ops)))
		for _, o := range ops {
			b = append(b, byte(o.route), flag(o.json), byte(o.node), flag(o.repeat))
			b = binary.AppendUvarint(b, uint64(len(o.items)))
			for _, it := range o.items {
				b = append(b, it.solver...)
				b = append(b, 0, flag(it.verify))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(it.k))
				b = binary.LittleEndian.AppendUint64(b, it.in.fp)
			}
		}
	}
	return b
}
