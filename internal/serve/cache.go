package serve

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// cacheShards is the lock-striping fan-out of a Cache. Shard selection
// hashes the key, so hot tenants hammering different jobs contend on
// different locks.
const cacheShards = 16

// evictScan is how many entries from the cold (LRU) end of a full shard are
// considered when choosing a victim: among them, the one with the lowest
// recorded recompute cost is evicted. Recency bounds the candidate set so a
// hot-but-cheap entry is never protected forever; cost picks the victim so
// an expensive setup solve outlives a pile of tiny results that went cold at
// the same time.
const evictScan = 4

// lruEntry is one node of a shard's intrusive LRU list (head = most
// recently used).
type lruEntry[V any] struct {
	key        string
	val        V
	cost       float64
	prev, next *lruEntry[V]
}

type cacheShard[V any] struct {
	mu         sync.Mutex
	m          map[string]*lruEntry[V]
	head, tail *lruEntry[V]
}

// Cache is a sharded, bounded, content-addressed in-memory cache with
// cost-aware LRU eviction. Keys are canonical hashes (jobspec.Hash /
// jobspec.SetupHash), so a hit is correct by construction: the deterministic
// engine maps equal keys to equal values. Eviction affects only hit rate,
// never correctness — a re-computed value is byte-identical to the evicted
// one — so the policy is free to optimize for recompute cost: each entry
// carries the virtual/wall seconds it took to produce, and eviction removes
// the cheapest of the coldest few (see evictScan).
type Cache[V any] struct {
	shards      [cacheShards]cacheShard[V]
	maxPerShard int
	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
}

// NewCache creates a cache bounded to roughly maxEntries values
// (0 = 4096).
func NewCache[V any](maxEntries int) *Cache[V] {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	c := &Cache[V]{maxPerShard: (maxEntries + cacheShards - 1) / cacheShards}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*lruEntry[V])
	}
	return c
}

func (c *Cache[V]) shard(key string) *cacheShard[V] {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%cacheShards]
}

// unlink removes e from the shard's LRU list (not the map).
func (s *cacheShard[V]) unlink(e *lruEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most-recently-used entry.
func (s *cacheShard[V]) pushFront(e *lruEntry[V]) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// Get returns the cached value and whether it was present, counting the
// lookup in the hit/miss statistics and refreshing the entry's recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.m[key]
	var v V
	if ok {
		v = e.val
		s.unlink(e)
		s.pushFront(e)
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Put stores a value weighted by its recompute cost (virtual or wall seconds
// — higher means more expensive to lose). If the shard is full, the cheapest
// of its evictScan coldest entries is evicted.
func (c *Cache[V]) Put(key string, v V, cost float64) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok {
		e.val = v
		e.cost = cost
		s.unlink(e)
		s.pushFront(e)
		return
	}
	if len(s.m) >= c.maxPerShard {
		victim := s.tail
		cand := s.tail
		for i := 0; i < evictScan && cand != nil; i++ {
			if cand.cost < victim.cost {
				victim = cand
			}
			cand = cand.prev
		}
		if victim != nil {
			s.unlink(victim)
			delete(s.m, victim.key)
			c.evictions.Add(1)
		}
	}
	e := &lruEntry[V]{key: key, val: v, cost: cost}
	s.m[key] = e
	s.pushFront(e)
}

// Len returns the total number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}

// Stats returns the cumulative hit, miss, and eviction counts.
func (c *Cache[V]) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// resultEntry is a whole-result cache value: the deterministic result
// document and the run's telemetry event log (both byte-identical across
// identical jobs).
type resultEntry struct {
	result []byte
	events []byte
}
