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
//
// A key is hashed once per lookup, by the caller (Engine.classify), and
// the same hash serves get and put: its low bits pick the shard, its
// high bits the key's home slot in the shard's index.
type lruCache struct {
	shards []cacheShard
	mask   uint64
	seed   maphash.Seed
}

// cacheShard is a CLOCK ring under an open-addressing index. The index
// is linear-probed, pointer-free and at most half full, and a deletion
// shifts the rest of its probe run back, so it holds no tombstones.
// It doubles when the ring passes half of it and is rebuilt from the
// hashes the ring entries keep, so an index is only as large as the
// ring has grown, and an empty shard has none.
type cacheShard struct {
	mu    sync.RWMutex
	slots []cacheSlot // len 0 or a power of two, at least 2*len(ring)
	ring  []cacheEntry
	hand  int
	cap   int
}

// cacheSlot indexes one ring entry: its key's hash and its ring
// position plus one, so the zero slot is empty. It is 16 bytes.
type cacheSlot struct {
	hash uint64
	pos  int
}

type cacheEntry struct {
	key    string
	hash   uint64
	scores [langid.NumLanguages]float64
	ref    atomic.Bool
}

// cacheShards is the engine cache's shard count: enough to spread
// write contention across concurrent batches at a small fixed memory
// cost.
const cacheShards = 16

// newCache builds a cache with the given total capacity spread over
// shards (rounded up to a power of two). Returns nil when capacity <= 0,
// which callers treat as "caching disabled". It allocates no ring or
// index: both grow with the entries put.
func newCache(shards, capacity int) *lruCache {
	if capacity <= 0 {
		return nil
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := max((capacity+n-1)/n, 1)
	c := &lruCache{shards: make([]cacheShard, n), mask: uint64(n - 1), seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].cap = perShard
	}
	return c
}

// get returns the cached scores for key, whose hash is h. The
// referenced bit is atomic so concurrent readers share the read lock
// without racing on the flag — the whole point of CLOCK over a
// linked-list LRU, whose move-to-front would force every read through
// the write lock.
func (c *lruCache) get(h uint64, key string) ([langid.NumLanguages]float64, bool) {
	s := &c.shards[h&c.mask]
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.find(h, key)
	if !ok {
		var zero [langid.NumLanguages]float64
		return zero, false
	}
	e := &s.ring[s.slots[i].pos-1]
	e.ref.Store(true)
	return e.scores, true
}

// put inserts key's scores under its hash h, evicting the first
// non-referenced entry the clock hand finds once the shard is full.
func (c *lruCache) put(h uint64, key string, scores [langid.NumLanguages]float64) {
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.find(h, key); ok {
		e := &s.ring[s.slots[i].pos-1]
		e.scores = scores
		e.ref.Store(true)
		return
	}
	if len(s.ring) < s.cap {
		if 2*(len(s.ring)+1) > len(s.slots) {
			s.grow()
		}
		s.ring = append(s.ring, cacheEntry{})
		e := &s.ring[len(s.ring)-1]
		e.key, e.hash, e.scores = key, h, scores
		s.index(h, len(s.ring)-1)
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
		s.unindex(e.hash, s.hand)
		e.key, e.hash, e.scores = key, h, scores
		e.ref.Store(false)
		s.index(h, s.hand)
		s.hand = (s.hand + 1) % len(s.ring)
		return
	}
}

// home is the slot a hash's probe run starts at. The shard was picked
// by the hash's low bits, so the index uses its high ones.
func (s *cacheShard) home(h uint64) uint64 {
	return (h >> 32) & uint64(len(s.slots)-1)
}

// find probes for key from its home slot and returns the slot that
// indexes it. A slot matches on the hash first and then on the key, so
// keys whose hashes collide keep their own entries.
func (s *cacheShard) find(h uint64, key string) (uint64, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.home(h); s.slots[i].pos != 0; i = (i + 1) & mask {
		if s.slots[i].hash == h && s.ring[s.slots[i].pos-1].key == key {
			return i, true
		}
	}
	return 0, false
}

// index records ring position pos under hash h in the first empty slot
// of h's probe run. The index is at most half full, so there is one.
func (s *cacheShard) index(h uint64, pos int) {
	mask := uint64(len(s.slots) - 1)
	i := s.home(h)
	for s.slots[i].pos != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = cacheSlot{hash: h, pos: pos + 1}
}

// unindex removes the slot of ring position pos, whose hash is h, and
// shifts back each later slot of the probe run that its home allows,
// so every remaining entry stays reachable from its home without a
// tombstone.
func (s *cacheShard) unindex(h uint64, pos int) {
	mask := uint64(len(s.slots) - 1)
	i := s.home(h)
	for s.slots[i].pos != pos+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.slots[j].pos != 0; j = (j + 1) & mask {
		// Slot j may fill the hole at i if i lies on its probe run,
		// which starts at its home: the hole is no farther behind j
		// than the home is.
		if (j-s.home(s.slots[j].hash))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = cacheSlot{}
}

// grow doubles the index and rebuilds it from the hashes the ring
// entries keep, so no key is hashed again.
func (s *cacheShard) grow() {
	s.slots = make([]cacheSlot, max(2*len(s.slots), 2)) //urllangid:ignore hotpathalloc fill-phase growth, the index stops doubling once the ring reaches capacity
	for pos := range s.ring {
		s.index(s.ring[pos].hash, pos)
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
