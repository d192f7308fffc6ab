package server

import (
	"fmt"
	"sync"
	"testing"
)

func k(fp uint64) cacheKey { return newCacheKey(fp, "bandwidth", 100, 0, false) }

// get is c.Get's frame, nil on a miss.
func get(c *Cache, key cacheKey) ([]byte, bool) {
	e, ok := c.Get(key)
	if !ok {
		return nil, false
	}
	return e.body, true
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(8, 1)
	if _, ok := c.Get(k(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(k(1), []byte("one"))
	body, ok := get(c, k(1))
	if !ok || string(body) != "one" {
		t.Fatalf("Get = %q, %v; want \"one\", true", body, ok)
	}
	// Same fingerprint, different solve parameters: distinct entries.
	for _, key := range []cacheKey{
		newCacheKey(1, "bottleneck", 100, 0, false),
		newCacheKey(1, "bandwidth", 200, 0, false),
		newCacheKey(1, "bandwidth", 100, 4, false),
		newCacheKey(1, "bandwidth", 100, 0, true), // verified frame differs
	} {
		if _, ok := c.Get(key); ok {
			t.Errorf("key %+v unexpectedly hit", key)
		}
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 entry", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(3, 1) // single shard so the LRU order is global
	for i := uint64(0); i < 3; i++ {
		c.Put(k(i), []byte{byte(i)})
	}
	c.Get(k(0)) // 0 is now most recent; 1 is the LRU victim
	c.Put(k(3), []byte{3})
	if _, ok := c.Get(k(1)); ok {
		t.Error("LRU entry 1 survived eviction")
	}
	for _, want := range []uint64{0, 2, 3} {
		if _, ok := c.Get(k(want)); !ok {
			t.Errorf("entry %d missing after eviction", want)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Errorf("stats = %+v, want 1 eviction / 3 entries", st)
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := NewCache(4, 1)
	c.Put(k(1), []byte("a"))
	c.Put(k(1), []byte("b"))
	body, ok := get(c, k(1))
	if !ok || string(body) != "b" {
		t.Fatalf("Get = %q, %v; want \"b\", true", body, ok)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1 (refresh must not duplicate)", st.Entries)
	}
}

func TestCacheDisabled(t *testing.T) {
	var c *Cache // nil: the disabled cache
	c.Put(k(1), []byte("x"))
	if _, ok := c.Get(k(1)); ok {
		t.Error("nil cache returned a hit")
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Errorf("nil cache stats = %+v, want zero", st)
	}
	if NewCache(0, 4) != nil || NewCache(-1, 4) != nil {
		t.Error("NewCache(<=0 size) should return nil")
	}
}

func TestCacheShardingCapacity(t *testing.T) {
	c := NewCache(10, 3) // 4+3+3
	total := 0
	for _, s := range c.shards {
		total += s.capacity
		if s.capacity < 1 {
			t.Errorf("shard capacity %d < 1", s.capacity)
		}
	}
	if total != 10 {
		t.Errorf("summed shard capacity = %d, want 10", total)
	}
	// More shards than entries: clamped, no zero-capacity shards.
	c = NewCache(2, 64)
	if got := len(c.shards); got != 2 {
		t.Errorf("shards = %d, want clamped to 2", got)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(128, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := newCacheKey(uint64(i%64), fmt.Sprintf("solver-%d", g%2), float64(i%8+1), 0, false)
				if body, ok := get(c, key); ok && len(body) == 0 {
					t.Error("hit with empty body")
					return
				}
				c.Put(key, []byte("body"))
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Errorf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
}
