// Package server is the network serving layer over the solver engine: an
// HTTP/JSON API exposing the full solver registry, with a sharded LRU result
// cache keyed by stable graph fingerprints, admission control (bounded
// concurrency + bounded queue + per-request deadlines), and Prometheus-style
// metrics fed by an engine Observer. cmd/partitiond is the binary.
//
// Partitioning workloads are highly repetitive — the same task graph is
// re-solved across K values and solver choices when sizing a deployment — so
// the cache turns repeated solves into O(1) lookups of the canonical PRS1
// result frame, from which every response format renders byte-identically
// to the first answer. A JSON hit writes the entry's memo of its untraced
// JSON body, which the first JSON hit on that entry renders and fills; a
// miss renders and keeps nothing, since most keys are never asked again.
//
// The same repetition holds one level down: a new K on a known graph misses
// the result cache but not the graph store, which keeps decoded graphs by
// the fingerprint the cache keys on. The request decoders fold the
// fingerprint from the bytes they were sent and, on a hit, reuse the stored
// graph: no fill, no graph-sized allocation, no check, and for a tree the
// rooted view its solvers and certificates walk, built once. A miss decodes
// as before, then freezes and stores the graph (graph.Store). Both are one
// sharded LRU (lru below): the cache counts entries, the store bytes
// (graphStoreBytes, arrays plus rooted views). Fingerprints normalise -0 to
// +0, so graphs that differ only in the sign of a zero share a store entry
// as they share cache entries. The store is off when the cache is.
//
// A JSON graph is found before it is parsed, too. The store's text index
// maps a hash of an envelope's first bytes to the length, hash and
// fingerprint of the last envelope recorded with them (graph.TextEntry);
// an envelope whose bytes hash to that entry's again, as a client sweeping
// K over one graph sends, skips the parse along with the fill. Decoding is
// a function of the envelope's bytes alone (the pooled scratch is emptied
// on release), so the answer is the full decode's, up to the ±0 rule
// above. The text index trusts 64-bit hashes as the fingerprint does, but
// ones seeded per process (hash/maphash), so a client cannot craft a
// collision without the seed. It is a second LRU, charged textEntryBytes
// an entry against its share of graphStoreBytes; only successful path and
// tree decodes add to it.
package server

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// cacheKey identifies one solve: the graph's stable fingerprint plus every
// request parameter that changes the answer. Stats (duration, iterations)
// ride along inside the cached frame — they describe the original solve.
type cacheKey struct {
	fingerprint   uint64
	solver        string
	kBits         uint64 // math.Float64bits(K), canonical for float compare
	maxComponents int
	verify        bool // verified frames carry a certificate
}

func newCacheKey(fp uint64, solver string, k float64, maxComponents int, verify bool) cacheKey {
	if k == 0 {
		k = 0 // normalize -0.0, mirroring the fingerprint's weight rule
	}
	return cacheKey{fingerprint: fp, solver: solver, kBits: math.Float64bits(k), maxComponents: maxComponents, verify: verify}
}

// shardIndex spreads keys across shards by re-mixing all key fields; the
// fingerprint alone would put every (solver, K) variant of one hot graph on
// the same shard.
func (k cacheKey) shardIndex(n int) int {
	h := uint64(14695981039346656037)
	mix := func(w uint64) {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= 1099511628211
			w >>= 8
		}
	}
	mix(k.fingerprint)
	mix(k.kBits)
	mix(uint64(k.maxComponents))
	if k.verify {
		mix(1)
	}
	for i := 0; i < len(k.solver); i++ {
		h ^= uint64(k.solver[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// lruKey is a key of an lru: comparable, and spread over the shards by
// shardIndex.
type lruKey interface {
	comparable
	shardIndex(n int) int
}

// lruEntry is a value of an lru, which knows its key and what it costs
// against the capacity.
type lruEntry[K lruKey] interface {
	lruKey() K
	lruCost() int
}

// lru is a sharded least-recently-used map from keys to entries, each shard
// locked on its own and holding at most its share of the capacity. The
// capacity is counted in the unit entries cost: the result cache counts
// entries, the graph store bytes.
type lru[K lruKey, V lruEntry[K]] struct {
	shards []*lruShard[K, V]
}

// lruShard is one independently locked LRU list + index.
type lruShard[K lruKey, V lruEntry[K]] struct {
	mu        sync.Mutex
	capacity  int
	used      int
	ll        *list.List // front = most recently used
	items     map[K]*list.Element
	evictions uint64
}

// newLRU spreads capacity over the given number of shards, with at most one
// shard per unit of capacity.
func newLRU[K lruKey, V lruEntry[K]](capacity, shards int) lru[K, V] {
	shards = min(shards, capacity)
	c := lru[K, V]{shards: make([]*lruShard[K, V], shards)}
	per, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		c.shards[i] = &lruShard[K, V]{
			capacity: per,
			ll:       list.New(),
			items:    make(map[K]*list.Element),
		}
		if i < extra {
			c.shards[i].capacity++
		}
	}
	return c
}

// get returns the entry for key, marking it most recently used.
func (c *lru[K, V]) get(key K) (V, bool) {
	s := c.shards[key.shardIndex(len(c.shards))]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(V), true
}

// put stores e under its key, replacing the entry stored there, and evicts
// least recently used entries of the key's shard until it is within its
// capacity. An entry that costs more than the shard's capacity is not
// stored.
func (c *lru[K, V]) put(e V) {
	key, cost := e.lruKey(), e.lruCost()
	s := c.shards[key.shardIndex(len(c.shards))]
	s.mu.Lock()
	defer s.mu.Unlock()
	if cost > s.capacity {
		return
	}
	if el, ok := s.items[key]; ok {
		s.used -= el.Value.(V).lruCost()
		s.ll.Remove(el)
		delete(s.items, key)
	}
	for s.used+cost > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		old := oldest.Value.(V)
		delete(s.items, old.lruKey())
		s.used -= old.lruCost()
		s.evictions++
	}
	s.items[key] = s.ll.PushFront(e)
	s.used += cost
}

// CacheStats aggregates an LRU's occupancy and eviction counters across
// shards. Used and Capacity count in the unit its entries cost: entries for
// the result cache, bytes for the graph store. The result cache's lookup
// outcomes are counted by the resolver, per requester tier.
type CacheStats struct {
	Evictions      uint64
	Entries        int
	Used, Capacity int
	Shards         int
}

func (c *lru[K, V]) stats() CacheStats {
	st := CacheStats{Shards: len(c.shards)}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Evictions += s.evictions
		st.Entries += s.ll.Len()
		st.Used += s.used
		st.Capacity += s.capacity
		s.mu.Unlock()
	}
	return st
}

// cacheEntry is one cached answer: its PRS1 frame, and the memo of its
// untraced JSON body (see renderJSONResult). The frame never changes: a Put
// on a stored key swaps in a new entry, which drops the old frame's memo
// with it. Both are shared and read-only.
type cacheEntry struct {
	key  cacheKey
	body []byte
	json atomic.Pointer[[]byte]
}

func (e *cacheEntry) lruKey() cacheKey { return e.key }
func (e *cacheEntry) lruCost() int     { return 1 }

// Cache is a sharded LRU over canonical PRS1 solve frames, bounded by entry
// count. A nil *Cache is a valid always-miss cache, which is how caching is
// disabled.
type Cache struct {
	lru[cacheKey, *cacheEntry]
}

// NewCache builds a cache holding at most size entries spread over the given
// shard count. size <= 0 returns nil (caching disabled); shards <= 0 picks a
// default of 16, clamped so every shard holds at least one entry.
func NewCache(size, shards int) *Cache {
	if size <= 0 {
		return nil
	}
	if shards <= 0 {
		shards = 16
	}
	return &Cache{newLRU[cacheKey, *cacheEntry](size, shards)}
}

// Get returns the cache entry for key, marking it most recently used. Its
// frame and memo are shared — callers must not modify them.
func (c *Cache) Get(key cacheKey) (*cacheEntry, bool) {
	if c == nil {
		return nil, false
	}
	return c.get(key)
}

// Put stores body under key, evicting the least recently used entry of the
// key's shard when the shard is full. Storing an existing key refreshes it
// with a new entry.
func (c *Cache) Put(key cacheKey, body []byte) {
	if c != nil {
		c.put(&cacheEntry{key: key, body: body})
	}
}

// Stats snapshots the cache counters. Safe on a nil cache.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return c.stats()
}

// graphStoreBytes is the graph store's budget: the arrays of the stored
// graphs plus their rooted views (graph.Tree.Footprint), about fifty
// 5,000-node trees, and its text index (textIndexBytes).
const graphStoreBytes = 16 << 20

// textIndexBytes is the share of graphStoreBytes the text index holds, at
// textEntryBytes an entry: 2,048 envelopes.
const textIndexBytes = 256 << 10

// textEntryBytes is what one text entry is charged: about what it holds
// in memory, the entry, its list element and its map slot.
const textEntryBytes = 128

// graphStoreShards is the graph store's shard count. Graphs are large and
// few, so fewer shards than the result cache's keep a shard's share of the
// budget several graphs deep.
const graphStoreShards = 4

// graphKey is a graph's fingerprint, keying the graph store. It is already
// a hash, so it picks its shard directly.
type graphKey uint64

func (k graphKey) shardIndex(n int) int { return int(uint64(k) % uint64(n)) }

// storedGraph is one frozen graph in the graph store, with its footprint.
type storedGraph struct {
	fp   graphKey
	g    any
	size int
}

func (e *storedGraph) lruKey() graphKey { return e.fp }
func (e *storedGraph) lruCost() int     { return e.size }

// textKey is the hash of a JSON envelope's first bytes, keying the text
// index. It is already a hash, so it picks its shard directly.
type textKey uint64

func (k textKey) shardIndex(n int) int { return int(uint64(k) % uint64(n)) }

// textEntry is one entry of the text index.
type textEntry graph.TextEntry

func (e *textEntry) lruKey() textKey { return textKey(e.Prefix) }
func (e *textEntry) lruCost() int    { return textEntryBytes }

// graphStore is the graph.Store the request decoders consult: frozen paths
// and trees by the fingerprint that also keys the result cache, in an LRU
// bounded by graphStoreBytes less the text index, and the text index, an
// LRU from the first bytes of JSON envelopes to those fingerprints. A nil
// *graphStore stores nothing; it is nil when the result cache is disabled.
type graphStore struct {
	lru[graphKey, *storedGraph]
	texts                  lru[textKey, *textEntry]
	hits, misses, textHits atomic.Uint64
}

func newGraphStore() *graphStore {
	return &graphStore{
		lru:   newLRU[graphKey, *storedGraph](graphStoreBytes-textIndexBytes, graphStoreShards),
		texts: newLRU[textKey, *textEntry](textIndexBytes, graphStoreShards),
	}
}

// Get implements graph.Store, counting the lookup's outcome.
func (s *graphStore) Get(fp uint64) any {
	if e, ok := s.get(graphKey(fp)); ok {
		s.hits.Add(1)
		return e.g
	}
	s.misses.Add(1)
	return nil
}

// Put implements graph.Store: g is frozen and stored. A graph that alone
// outweighs a shard's share of the budget is frozen but not kept.
func (s *graphStore) Put(fp uint64, g any) {
	var size int
	switch g := g.(type) {
	case *graph.Path:
		g.Freeze()
		size = g.Footprint()
	case *graph.Tree:
		g.Freeze()
		size = g.Footprint()
	default:
		return
	}
	s.put(&storedGraph{fp: graphKey(fp), g: g, size: size})
}

// GetText implements graph.Store, counting only the lookups it answers: a
// matching text entry whose graph is still stored. A miss is counted by
// the Get that follows the parse.
func (s *graphStore) GetText(prefix uint64, doc []byte, depth int) (any, graph.TextEntry) {
	if t, ok := s.texts.get(textKey(prefix)); ok {
		if e := graph.TextEntry(*t); e.Matches(doc, depth) {
			if g, ok := s.get(graphKey(e.FP)); ok {
				s.textHits.Add(1)
				return g.g, e
			}
		}
	}
	return nil, graph.TextEntry{}
}

// PutText implements graph.Store.
func (s *graphStore) PutText(e graph.TextEntry) {
	s.texts.put((*textEntry)(&e))
}

// graphStoreStats are the graph store's lookup counters and the bytes of
// its resident graphs.
type graphStoreStats struct {
	Hits, Misses, TextHits uint64
	Bytes                  int
}

// stats snapshots the store. Safe on a nil store.
func (s *graphStore) stats() graphStoreStats {
	if s == nil {
		return graphStoreStats{}
	}
	return graphStoreStats{Hits: s.hits.Load(), Misses: s.misses.Load(), TextHits: s.textHits.Load(), Bytes: s.lru.stats().Used}
}

// graphStore returns the store for the decoders: nil, not a nil
// *graphStore, when there is none, so that they skip the lookup.
func (s *Server) graphStore() graph.Store {
	if s.graphs == nil {
		return nil
	}
	return s.graphs
}
