package serve

import (
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"sync"
	"testing"

	"urllangid/internal/langid"
)

// scoresFor gives each key a distinguishable score vector so corruption
// (entry served under the wrong key) is observable, not just crashes.
func scoresFor(key string) [langid.NumLanguages]float64 {
	var s [langid.NumLanguages]float64
	h := 0.0
	for i := 0; i < len(key); i++ {
		h = h*31 + float64(key[i])
	}
	for i := range s {
		s[i] = h + float64(i)
	}
	return s
}

// cacheGet and cachePut hash key as Engine.classify does.
func cacheGet(c *lruCache, key string) ([langid.NumLanguages]float64, bool) {
	return c.get(maphash.String(c.seed, key), key)
}

func cachePut(c *lruCache, key string, scores [langid.NumLanguages]float64) {
	c.put(maphash.String(c.seed, key), key, scores)
}

// checkShardConsistent verifies the index/ring bijection every put must
// maintain: each index is a power of two at most half full, each
// occupied slot points at a ring entry with the slot's hash, and each
// ring entry sits in the shard its hash picks, is indexed exactly once
// and is what find returns for its key.
func checkShardConsistent(t *testing.T, c *lruCache) {
	t.Helper()
	for si := range c.shards {
		s := &c.shards[si]
		s.mu.RLock()
		if n := len(s.slots); n&(n-1) != 0 || 2*len(s.ring) > n {
			t.Errorf("shard %d: an index of %d slots for %d entries", si, n, len(s.ring))
		}
		indexed := make([]int, len(s.ring))
		for i, sl := range s.slots {
			if sl.pos == 0 {
				continue
			}
			p := sl.pos - 1
			if p >= len(s.ring) {
				t.Errorf("shard %d: slot %d points at ring position %d of %d", si, i, p, len(s.ring))
				continue
			}
			if s.ring[p].hash != sl.hash {
				t.Errorf("shard %d: slot %d holds hash %#x, its entry %#x", si, i, sl.hash, s.ring[p].hash)
			}
			indexed[p]++
		}
		for p := range s.ring {
			e := &s.ring[p]
			if e.hash&c.mask != uint64(si) {
				t.Errorf("shard %d: entry %q belongs to shard %d", si, e.key, e.hash&c.mask)
			}
			if indexed[p] != 1 {
				t.Errorf("shard %d: entry %d (%q) indexed %d times", si, p, e.key, indexed[p])
			}
			if i, ok := s.find(e.hash, e.key); !ok || s.slots[i].pos-1 != p {
				t.Errorf("shard %d: find(%q) does not reach entry %d", si, e.key, p)
			}
		}
		s.mu.RUnlock()
	}
}

// refClock is the cache as it was before the index: one shard whose Go
// map takes a key to its ring position, over the same ring, hand and
// second-chance sweep. The differential tests hold lruCache to it hit
// for hit.
type refClock struct {
	m    map[string]int
	ring []refEntry
	hand int
	cap  int
}

type refEntry struct {
	key    string
	scores [langid.NumLanguages]float64
	ref    bool
}

func newRefClock(capacity int) *refClock {
	return &refClock{m: make(map[string]int), cap: capacity}
}

func (r *refClock) get(key string) ([langid.NumLanguages]float64, bool) {
	i, ok := r.m[key]
	if !ok {
		return [langid.NumLanguages]float64{}, false
	}
	r.ring[i].ref = true
	return r.ring[i].scores, true
}

func (r *refClock) put(key string, scores [langid.NumLanguages]float64) {
	if i, ok := r.m[key]; ok {
		r.ring[i].scores, r.ring[i].ref = scores, true
		return
	}
	if len(r.ring) < r.cap {
		r.m[key] = len(r.ring)
		r.ring = append(r.ring, refEntry{key: key, scores: scores})
		return
	}
	for ; r.ring[r.hand].ref; r.hand = (r.hand + 1) % len(r.ring) {
		r.ring[r.hand].ref = false
	}
	delete(r.m, r.ring[r.hand].key)
	r.m[key] = r.hand
	r.ring[r.hand] = refEntry{key: key, scores: scores}
	r.hand = (r.hand + 1) % len(r.ring)
}

// diffStep applies one get or put of key, whose hash is h, to both
// caches and fails on the first answer they disagree on. A put stores
// scores that name the key and the step, so a stale entry shows as
// well as a crossed one.
func diffStep(t *testing.T, c *lruCache, ref *refClock, step int, put bool, h uint64, key string) {
	t.Helper()
	if put {
		s := scoresFor(key)
		s[0] = float64(step)
		c.put(h, key, s)
		ref.put(key, s)
		return
	}
	got, ok := c.get(h, key)
	want, wantOK := ref.get(key)
	if ok != wantOK || got != want {
		t.Fatalf("step %d: get(%q) = %v, %v; the reference CLOCK answers %v, %v", step, key, got, ok, want, wantOK)
	}
}

// TestCacheMatchesReferenceClock runs 300,000 random gets and puts over
// a key set twice the capacity, so about half the gets hit, and checks
// every answer against the reference CLOCK.
func TestCacheMatchesReferenceClock(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 4, 7, 64, 1000} {
		c, ref := newCache(1, capacity), newRefClock(capacity)
		keys := testURLs(2*capacity + 1)
		hashes := make([]uint64, len(keys))
		for i, k := range keys {
			hashes[i] = maphash.String(c.seed, k)
		}
		rng := rand.New(rand.NewPCG(uint64(capacity), 19))
		for step := 0; step < 300_000; step++ {
			k := rng.IntN(len(keys))
			diffStep(t, c, ref, step, rng.IntN(2) == 0, hashes[k], keys[k])
			if step%4096 == 0 {
				checkShardConsistent(t, c)
			}
		}
		checkShardConsistent(t, c)
	}
}

const fuzzPut = 0x80

var fuzzKeys = func() (keys [32]string) {
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return keys
}()

// fuzzHash is key k's hash in FuzzCacheClock. Keys 0–15 home in the
// last four slots of any index, so their probe runs cross its end, and
// k and k+8 share their whole hash. Keys 16–31 spread out.
func fuzzHash(k int) uint64 {
	if k < 16 {
		return uint64(^uint32(k%4))<<32 | uint64(k%8)
	}
	return uint64(k) * 0x9e3779b97f4a7c15
}

// FuzzCacheClock holds the cache to the reference CLOCK hit for hit.
// The first byte sets the capacity of a one-shard cache, 1–64. Each
// later byte is a get of key b&31, or a put when its high bit is set.
func FuzzCacheClock(f *testing.F) {
	// The hand wraps around a ring of three several times.
	f.Add([]byte{2, fuzzPut | 16, fuzzPut | 17, fuzzPut | 18, 16, fuzzPut | 19, fuzzPut | 20,
		fuzzPut | 21, fuzzPut | 22, 16, 17, 18, 19, 20, 21, 22, fuzzPut | 16, fuzzPut | 17, 21, 22})
	// Keys 0, 4, 8 and 12 share a home in the last of eight slots, so
	// their run wraps to slots 0–2; evicting key 0 shifts it back across
	// the end.
	f.Add([]byte{3, fuzzPut | 0, fuzzPut | 4, fuzzPut | 8, fuzzPut | 12, 0, 4, 8, 12,
		fuzzPut | 1, 0, 4, 8, 12, 1, fuzzPut | 5, fuzzPut | 9, 4, 8, 12, 1, 5, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0])%64 + 1
		c, ref := newCache(1, capacity), newRefClock(capacity)
		for step, b := range data[1:] {
			k := int(b & 31)
			diffStep(t, c, ref, step, b&fuzzPut != 0, fuzzHash(k), fuzzKeys[k])
			checkShardConsistent(t, c)
		}
	})
}

// TestCacheHashCollision puts two keys under one hash: a slot matches
// on the key as well, so each reads back its own scores.
func TestCacheHashCollision(t *testing.T) {
	c := newCache(1, 4)
	const h = 0x9e3779b97f4a7c15
	c.put(h, "a", scoresFor("a"))
	c.put(h, "b", scoresFor("b"))
	for _, key := range []string{"a", "b"} {
		if got, ok := c.get(h, key); !ok || got != scoresFor(key) {
			t.Errorf("get(%q) = %v, %v; want its own scores", key, got, ok)
		}
	}
	if _, ok := c.get(h, "c"); ok {
		t.Error("a key never put hit under a colliding hash")
	}
	checkShardConsistent(t, c)
}

// TestCacheClockWraparound drives the hand through several full
// revolutions and checks the index and ring stay consistent and
// capacity is never exceeded.
func TestCacheClockWraparound(t *testing.T) {
	c := newCache(1, 4)
	for round := 0; round < 5; round++ {
		for i := 0; i < 7; i++ {
			key := fmt.Sprintf("r%d-k%d", round, i)
			cachePut(c, key, scoresFor(key))
			checkShardConsistent(t, c)
			if got, ok := cacheGet(c, key); !ok || got != scoresFor(key) {
				t.Fatalf("just-inserted %q missing or wrong (ok=%v)", key, ok)
			}
		}
		if n := c.len(); n != 4 {
			t.Fatalf("round %d: len = %d, want capacity 4", round, n)
		}
	}
}

// TestCacheAllReferencedShard pins the bounded second-chance sweep: when
// every entry has its referenced bit set, put must still evict (after
// one bit-clearing revolution) rather than spin or drop the insert.
func TestCacheAllReferencedShard(t *testing.T) {
	c := newCache(1, 3)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		cachePut(c, key, scoresFor(key))
	}
	for i := 0; i < 3; i++ {
		cacheGet(c, fmt.Sprintf("k%d", i)) // set every referenced bit
	}
	cachePut(c, "new", scoresFor("new"))
	if _, ok := cacheGet(c, "new"); !ok {
		t.Fatal("insert into all-referenced shard was dropped")
	}
	if n := c.len(); n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	checkShardConsistent(t, c)
	// Exactly one of the original keys was evicted.
	evicted := 0
	for i := 0; i < 3; i++ {
		if _, ok := cacheGet(c, fmt.Sprintf("k%d", i)); !ok {
			evicted++
		}
	}
	if evicted != 1 {
		t.Errorf("%d original keys evicted, want exactly 1", evicted)
	}
}

// TestCacheOverwriteExisting checks an update-in-place put refreshes
// scores without growing the shard or touching other entries.
func TestCacheOverwriteExisting(t *testing.T) {
	c := newCache(1, 2)
	cachePut(c, "a", scoresFor("a"))
	cachePut(c, "b", scoresFor("b"))
	cachePut(c, "a", scoresFor("a2"))
	if got, ok := cacheGet(c, "a"); !ok || got != scoresFor("a2") {
		t.Errorf("overwrite lost: ok=%v", ok)
	}
	if got, ok := cacheGet(c, "b"); !ok || got != scoresFor("b") {
		t.Errorf("neighbour disturbed: ok=%v", ok)
	}
	if n := c.len(); n != 2 {
		t.Errorf("len = %d, want 2", n)
	}
	checkShardConsistent(t, c)
}

// TestCacheConcurrentPutGet hammers overlapping keys from many
// goroutines; run with -race (the Makefile verify gate does). Every get
// that returns ok must return that key's scores — eviction may lose
// entries, it must never cross-wire them.
func TestCacheConcurrentPutGet(t *testing.T) {
	c := newCache(4, 64)
	const (
		workers = 8
		keys    = 256
		rounds  = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("k%d", (r*7+w*13)%keys)
				if r%3 == 0 {
					cachePut(c, key, scoresFor(key))
					continue
				}
				if got, ok := cacheGet(c, key); ok && got != scoresFor(key) {
					t.Errorf("get(%q) returned another key's scores", key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.len(); n > 64 {
		t.Errorf("cache grew to %d entries, capacity 64", n)
	}
	checkShardConsistent(t, c)
}

// BenchmarkCacheMiss is what a first sighting costs the engine's cache:
// hash, get and put. It cycles 262,144 keys, each allocated on its own
// as the keys of separate requests are, through a full 131,072-entry,
// 16-shard cache, so every get misses and every put evicts.
func BenchmarkCacheMiss(b *testing.B) {
	c := newCache(cacheShards, 1<<17)
	keys := testURLs(1 << 18)
	var s [langid.NumLanguages]float64
	for _, k := range keys {
		cachePut(c, k, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		h := maphash.String(c.seed, k)
		if _, ok := c.get(h, k); !ok {
			c.put(h, k, s)
		}
	}
}

// BenchmarkCacheHit is what a repeat costs: hash and get, over 10,000
// resident keys in the same cache.
func BenchmarkCacheHit(b *testing.B) {
	c := newCache(cacheShards, 1<<17)
	keys := testURLs(10_000)
	var s [langid.NumLanguages]float64
	for _, k := range keys {
		cachePut(c, k, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if _, ok := c.get(maphash.String(c.seed, k), k); !ok {
			b.Fatalf("resident key %q missed", k)
		}
	}
}
