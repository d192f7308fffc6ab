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
package server

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"
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

// cacheEntry is one cached answer: its PRS1 frame, and the memo of its
// untraced JSON body (see renderJSONResult). The frame never changes: a Put
// on a stored key swaps in a new entry, which drops the old frame's memo
// with it. Both are shared and read-only.
type cacheEntry struct {
	key  cacheKey
	body []byte
	json atomic.Pointer[[]byte]
}

// cacheShard is one independently locked LRU list + index.
type cacheShard struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[cacheKey]*list.Element
	evictions uint64
}

// Cache is a sharded LRU over canonical PRS1 solve frames. A nil *Cache is a
// valid always-miss cache, which is how caching is disabled.
type Cache struct {
	shards []*cacheShard
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
	if shards > size {
		shards = size
	}
	c := &Cache{shards: make([]*cacheShard, shards)}
	per := size / shards
	extra := size % shards
	for i := range c.shards {
		cap := per
		if i < extra {
			cap++
		}
		c.shards[i] = &cacheShard{
			capacity: cap,
			ll:       list.New(),
			items:    make(map[cacheKey]*list.Element),
		}
	}
	return c
}

// Get returns the cache entry for key, marking it most recently used. Its
// frame and memo are shared — callers must not modify them.
func (c *Cache) Get(key cacheKey) (*cacheEntry, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shards[key.shardIndex(len(c.shards))]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// Put stores body under key, evicting the least recently used entry of the
// key's shard when the shard is full. Storing an existing key refreshes it
// with a new entry.
func (c *Cache) Put(key cacheKey, body []byte) {
	if c == nil {
		return
	}
	s := c.shards[key.shardIndex(len(c.shards))]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value = &cacheEntry{key: key, body: body}
		s.ll.MoveToFront(el)
		return
	}
	for s.ll.Len() >= s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		s.evictions++
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, body: body})
}

// CacheStats aggregates occupancy and eviction counters across shards.
// Lookup outcomes are counted by the resolver, per requester tier.
type CacheStats struct {
	Evictions uint64
	Entries   int
	Capacity  int
	Shards    int
}

// Stats snapshots the cache counters. Safe on a nil cache.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	var st CacheStats
	st.Shards = len(c.shards)
	for _, s := range c.shards {
		s.mu.Lock()
		st.Evictions += s.evictions
		st.Entries += s.ll.Len()
		st.Capacity += s.capacity
		s.mu.Unlock()
	}
	return st
}
