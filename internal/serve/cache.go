package serve

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"urllangid/internal/langid"
)

// lruCache is a sharded result cache. Crawl frontiers hit the same hosts
// over and over — a frontier of a million URLs typically spans a few
// tens of thousands of hosts — so even a small cache absorbs most of the
// scoring work (the paper's motivating crawler, §1, classifies millions
// of uncrawled URLs before download).
//
// Each shard runs the CLOCK (second-chance) approximation of LRU: a Get
// takes only the shard's read lock and flips an entry's referenced bit,
// so concurrent readers never serialise behind list surgery the way a
// linked-list LRU forces them to; only inserts take the write lock.
type lruCache struct {
	shards []cacheShard
	mask   uint64
	seed   maphash.Seed
}

type cacheShard struct {
	mu   sync.RWMutex
	m    map[string]int // key -> index into ring
	ring []cacheEntry
	hand int
	cap  int
}

type cacheEntry struct {
	key    string
	scores [langid.NumLanguages]float64
	ref    atomic.Bool
}

// cacheShards is the engine cache's shard count: enough to spread
// write contention across concurrent batches at a small fixed memory
// cost.
const cacheShards = 16

// newCache builds a cache with the given total capacity spread over
// shards (rounded up to a power of two). Returns nil when capacity <= 0,
// which callers treat as "caching disabled".
func newCache(shards, capacity int) *lruCache {
	if capacity <= 0 {
		return nil
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &lruCache{shards: make([]cacheShard, n), mask: uint64(n - 1), seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i] = cacheShard{m: make(map[string]int), cap: perShard}
	}
	return c
}

func (c *lruCache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)&c.mask]
}

// get returns the cached scores for key. The referenced bit is atomic so
// concurrent readers share the read lock without racing on the flag —
// the whole point of CLOCK over a linked-list LRU, whose move-to-front
// would force every read through the write lock.
func (c *lruCache) get(key string) ([langid.NumLanguages]float64, bool) {
	s := c.shard(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.m[key]
	if !ok {
		var zero [langid.NumLanguages]float64
		return zero, false
	}
	e := &s.ring[i]
	e.ref.Store(true)
	return e.scores, true
}

// put inserts key's scores, evicting the first non-referenced entry the
// clock hand finds once the shard is full.
func (c *lruCache) put(key string, scores [langid.NumLanguages]float64) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.m[key]; ok {
		s.ring[i].scores = scores
		s.ring[i].ref.Store(true)
		return
	}
	if len(s.ring) < s.cap {
		s.m[key] = len(s.ring) //urllangid:ignore hotpathalloc fill-phase insert, map stops growing once the shard reaches capacity
		s.ring = append(s.ring, cacheEntry{})
		e := &s.ring[len(s.ring)-1]
		e.key, e.scores = key, scores
		return
	}
	// Second chance: clear referenced bits until an unreferenced victim
	// shows up; bounded by one full revolution plus one entry.
	for spins := 0; spins <= len(s.ring); spins++ {
		e := &s.ring[s.hand]
		if e.ref.Swap(false) {
			s.hand = (s.hand + 1) % len(s.ring)
			continue
		}
		delete(s.m, e.key)
		e.key, e.scores = key, scores
		e.ref.Store(false)
		s.m[key] = s.hand //urllangid:ignore hotpathalloc steady-state insert after delete keeps the map at capacity, bucket growth amortises to zero
		s.hand = (s.hand + 1) % len(s.ring)
		return
	}
}

// len returns the number of cached entries across all shards.
func (c *lruCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.ring)
		s.mu.RUnlock()
	}
	return n
}
