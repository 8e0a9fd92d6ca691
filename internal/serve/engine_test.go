package serve

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/datagen"
	"urllangid/internal/features"
	"urllangid/internal/langid"
)

var (
	testSnapOnce sync.Once
	testSnap     *compiled.Snapshot
	testSys      *core.System
)

// snapshot trains the headline NB/word system once and compiles it.
func snapshot(t testing.TB) (*compiled.Snapshot, *core.System) {
	t.Helper()
	testSnapOnce.Do(func() {
		ds := datagen.Generate(datagen.Config{
			Kind: datagen.ODP, Seed: 41, TrainPerLang: 800, TestPerLang: 1,
		})
		sys, err := core.Train(core.Config{Algo: core.NaiveBayes, Features: features.Words, Seed: 41}, ds.Train)
		if err != nil {
			panic(err)
		}
		testSys = sys
		testSnap = compiled.FromSystem(sys)
	})
	return testSnap, testSys
}

func testURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://www.nachrichten-seite%d.de/artikel/%d.html", i%97, i)
	}
	return urls
}

func TestClassifyMatchesPredictor(t *testing.T) {
	snap, sys := snapshot(t)
	e := New(snap, Options{CacheCapacity: 128})
	for _, u := range append(testURLs(50), "", "::not::a::url::", "gibberish") {
		got := e.Classify(u)
		want := sys.Predictions(u)
		for li := range want {
			if got.Scores()[li] != want[li].Score {
				t.Fatalf("%q lang %d: engine %v, system %v", u, li, got.Scores()[li], want[li].Score)
			}
		}
		preds := got.Predictions()
		for li := range preds {
			if preds[li] != want[li] {
				t.Fatalf("%q: prediction drift %+v vs %+v", u, preds[li], want[li])
			}
		}
	}
}

func TestClassifyBatchOrderAndParity(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{Workers: 8, CacheCapacity: 1024})
	urls := testURLs(500)
	results := e.ClassifyBatch(urls)
	if len(results) != len(urls) {
		t.Fatalf("got %d results for %d urls", len(results), len(urls))
	}
	for i, r := range results {
		if r.URL != urls[i] {
			t.Fatalf("result %d is for %q, want %q", i, r.URL, urls[i])
		}
		if r.Scores() != e.Classify(urls[i]).Scores() {
			t.Fatalf("batch and single disagree on %q", urls[i])
		}
	}
}

func TestCacheHitsAndNormalizedKeys(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{CacheCapacity: 64})
	u := "http://www.wetter-bericht.de/heute"
	first := e.Classify(u)
	if first.Cached {
		t.Fatal("first classification reported cached")
	}
	second := e.Classify(u)
	if !second.Cached || second.Scores() != first.Scores() {
		t.Fatalf("second classification cached=%v scores equal=%v", second.Cached, second.Scores() == first.Scores())
	}
	// The compiled snapshot keys by normalized URL: scheme variants and
	// uppercase collapse onto the same entry.
	for _, variant := range []string{
		"https://www.wetter-bericht.de/heute",
		"WWW.WETTER-BERICHT.DE/heute",
		"//www.wetter-bericht.de/heute",
	} {
		r := e.Classify(variant)
		if !r.Cached {
			t.Errorf("variant %q missed the cache", variant)
		}
		if r.Scores() != first.Scores() {
			t.Errorf("variant %q scored differently", variant)
		}
	}
	snapStats := e.StatsSnapshot()
	if snapStats.CacheHits != 4 || snapStats.CacheMisses != 1 {
		t.Errorf("hits/misses = %d/%d, want 4/1", snapStats.CacheHits, snapStats.CacheMisses)
	}
	if snapStats.CacheHitRate < 0.79 || snapStats.CacheHitRate > 0.81 {
		t.Errorf("hit rate = %v, want 0.8", snapStats.CacheHitRate)
	}
}

func TestCacheDisabled(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{CacheCapacity: 0})
	u := "http://www.wetter.de/"
	e.Classify(u)
	if r := e.Classify(u); r.Cached {
		t.Error("cache disabled but result reported cached")
	}
	stats := e.StatsSnapshot()
	if stats.CacheEntries != 0 {
		t.Errorf("cache entries = %d with caching disabled", stats.CacheEntries)
	}
	// A cache-less engine must not report its traffic as misses.
	if stats.CacheHits != 0 || stats.CacheMisses != 0 {
		t.Errorf("cache-less engine counted hits=%d misses=%d", stats.CacheHits, stats.CacheMisses)
	}
	if stats.URLs != 2 {
		t.Errorf("URLs = %d, want 2", stats.URLs)
	}
	if stats.LatencyP50Usec <= 0 {
		t.Error("cache-less engine recorded no latency samples")
	}
}

func TestCacheEviction(t *testing.T) {
	c := newCache(1, 4)
	var s [langid.NumLanguages]float64
	for i := 0; i < 16; i++ {
		c.put(fmt.Sprintf("k%d", i), s)
	}
	if n := c.len(); n != 4 {
		t.Errorf("cache grew to %d entries, capacity 4", n)
	}
	// The most recently inserted key must have survived.
	if _, ok := c.get("k15"); !ok {
		t.Error("latest insert evicted")
	}
}

func TestCacheSecondChance(t *testing.T) {
	c := newCache(1, 2)
	var s [langid.NumLanguages]float64
	c.put("hot", s)
	c.put("cold", s)
	c.get("hot") // referenced: survives one eviction round
	c.put("new", s)
	if _, ok := c.get("hot"); !ok {
		t.Error("referenced entry evicted before unreferenced one")
	}
	if _, ok := c.get("cold"); ok {
		t.Error("unreferenced entry survived")
	}
}

func TestEngineConcurrentMixedLoad(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{Workers: 4, CacheCapacity: 256, CacheShards: 4})
	urls := testURLs(200)
	want := e.ClassifyBatch(urls)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				got := e.ClassifyBatch(urls)
				for i := range got {
					if got[i].Scores() != want[i].Scores() {
						t.Errorf("concurrent batch drift at %d", i)
						return
					}
				}
				return
			}
			for i, u := range urls {
				if e.Classify(u).Scores() != want[i].Scores() {
					t.Errorf("concurrent single drift at %d", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestResultHelpers(t *testing.T) {
	r := Result{Result: langid.NewResult([langid.NumLanguages]float64{-1, 2, -3, 0.5, -0.1})}
	langs := r.Languages()
	if len(langs) != 2 || langs[0] != langid.German || langs[1] != langid.Spanish {
		t.Errorf("Languages = %v", langs)
	}
	best, score, any := r.Best()
	if best != langid.German || score != 2 || !any {
		t.Errorf("Best = %v, %v, %v", best, score, any)
	}
	r = Result{Result: langid.NewResult([langid.NumLanguages]float64{-1, -2, -3, -4, -5})}
	best, score, any = r.Best()
	if best != langid.English || score != -1 || any {
		t.Errorf("all-negative Best = %v, %v, %v", best, score, any)
	}
}

// countingPredictor is a stub whose score depends on the URL and which
// counts every Predictions call plus the exact argument it received.
type countingPredictor struct {
	mu    sync.Mutex
	calls []string
	key   func(string) string // nil: no CacheKeyer
}

func (p *countingPredictor) Predictions(rawURL string) []langid.Prediction {
	p.mu.Lock()
	p.calls = append(p.calls, rawURL)
	p.mu.Unlock()
	var preds []langid.Prediction
	for li := 0; li < langid.NumLanguages; li++ {
		preds = append(preds, langid.Prediction{
			Lang: langid.Language(li), Score: float64(len(rawURL) + li),
		})
	}
	return preds
}

// keyedPredictor adds CacheKey (but NOT ScoresForKey/Scores) on top.
type keyedPredictor struct{ countingPredictor }

func (p *keyedPredictor) CacheKey(rawURL string) string { return p.key(rawURL) }

// TestEngineCacheKeyerWithoutKeyScorer pins the fallback ordering: with
// a predictor that implements CacheKeyer but not KeyScorer, the engine
// must key the cache by CacheKey yet score the *raw* URL through
// Predictions — scoring the key instead would change answers for any
// predictor whose features see the raw string.
func TestEngineCacheKeyerWithoutKeyScorer(t *testing.T) {
	p := &keyedPredictor{}
	p.key = strings.ToLower
	e := New(p, Options{CacheCapacity: 16})
	if e.keyer == nil || e.keyScorer != nil || e.scorer != nil {
		t.Fatalf("interface detection: keyer=%v keyScorer=%v scorer=%v",
			e.keyer != nil, e.keyScorer != nil, e.scorer != nil)
	}

	raw := "HTTP://Example.DE/Seite"
	first := e.Classify(raw)
	if first.Cached {
		t.Fatal("first classification reported cached")
	}
	p.mu.Lock()
	if len(p.calls) != 1 || p.calls[0] != raw {
		t.Fatalf("miss path scored %v, want exactly the raw URL %q", p.calls, raw)
	}
	p.mu.Unlock()

	// A key-equivalent variant must hit the shared entry — and must NOT
	// trigger a second scoring, even though its raw form differs.
	variant := "http://example.de/seite"
	second := e.Classify(variant)
	if !second.Cached {
		t.Error("key-equivalent variant missed the cache")
	}
	if second.Scores() != first.Scores() {
		t.Error("variant served different scores than the shared entry")
	}
	p.mu.Lock()
	if len(p.calls) != 1 {
		t.Errorf("variant re-scored: calls = %v", p.calls)
	}
	p.mu.Unlock()
}

// TestEngineKeyScorerMissPath pins the complementary ordering: a full
// KeyScorer predictor must have its miss path driven through
// ScoresForKey with the key, not through Predictions with the raw URL.
func TestEngineKeyScorerMissPath(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{CacheCapacity: 16})
	if e.keyScorer == nil {
		t.Fatal("compiled snapshot lost its KeyScorer implementation")
	}
	raw := "HTTP://WWW.Wetter-Bericht.DE/Heute"
	got := e.Classify(raw)
	want := snap.Scores(raw)
	if got.Scores() != want {
		t.Fatalf("key-scored miss path diverged: %v vs %v", got.Scores(), want)
	}
}

func TestClassifyBatchDeduplicates(t *testing.T) {
	p := &countingPredictor{}
	e := New(p, Options{Workers: 4, CacheCapacity: 0})
	urls := []string{
		"http://a.de/1", "http://b.fr/2", "http://a.de/1", "http://c.es/3",
		"http://a.de/1", "http://b.fr/2",
	}
	out := e.ClassifyBatch(urls)
	if len(out) != len(urls) {
		t.Fatalf("got %d results for %d urls", len(out), len(urls))
	}
	p.mu.Lock()
	scorings := len(p.calls)
	p.mu.Unlock()
	if scorings != 3 {
		t.Errorf("scored %d times for 3 unique URLs", scorings)
	}
	for i, r := range out {
		if r.URL != urls[i] {
			t.Errorf("result %d is for %q, want %q", i, r.URL, urls[i])
		}
		if r.Scores() != e.score(urls[i]) {
			t.Errorf("result %d has wrong scores", i)
		}
		// No cache on this engine: copies must not claim to be cached.
		if r.Cached {
			t.Errorf("cache-less result %d reported cached", i)
		}
	}
	if stats := e.StatsSnapshot(); stats.URLs != int64(len(urls)) {
		t.Errorf("URLs = %d, want %d (duplicates still count as traffic)", stats.URLs, len(urls))
	}
}

func TestClassifyBatchDedupWithCache(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{Workers: 4, CacheCapacity: 64})
	u := "http://www.doppelt-seite.de/artikel"
	out := e.ClassifyBatch([]string{u, u, u})
	if out[0].Scores() != out[1].Scores() || out[1].Scores() != out[2].Scores() {
		t.Fatal("duplicate results diverged")
	}
	// The copies would have been cache hits had they classified after
	// the primary; they must report Cached and count as hits.
	if !out[1].Cached || !out[2].Cached {
		t.Errorf("deduped copies not reported cached: %v %v", out[1].Cached, out[2].Cached)
	}
	stats := e.StatsSnapshot()
	if stats.URLs != 3 {
		t.Errorf("URLs = %d, want 3", stats.URLs)
	}
	if stats.CacheHits != 2 || stats.CacheMisses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", stats.CacheHits, stats.CacheMisses)
	}
}

func TestClassifyBatchEmptyAndSingle(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{CacheCapacity: 16})
	if out := e.ClassifyBatch(nil); len(out) != 0 {
		t.Errorf("nil batch returned %d results", len(out))
	}
	out := e.ClassifyBatch([]string{"http://einzel.de/x"})
	if len(out) != 1 || out[0].URL != "http://einzel.de/x" {
		t.Errorf("single batch = %+v", out)
	}
}

func TestEngineFallbackPredictorWithoutScorer(t *testing.T) {
	_, sys := snapshot(t)
	// *core.System implements Scores but not CacheKey: the engine takes
	// the score fast path but must key the cache by raw URL.
	e := New(sys, Options{CacheCapacity: 16})
	u := "http://www.wetter.de/bericht"
	first := e.Classify(u)
	if !e.Classify(u).Cached {
		t.Error("raw-key cache missed on identical URL")
	}
	if e.Classify("https://www.wetter.de/bericht").Cached {
		t.Error("raw-key cache hit on a different raw URL")
	}
	want := sys.Predictions(u)
	for li := range want {
		if first.Scores()[li] != want[li].Score {
			t.Fatal("fallback path scores differ from system")
		}
	}
}

// countGoroutines samples runtime.NumGoroutine after giving exiting
// goroutines a moment to unwind.
func countGoroutines() int {
	runtime.Gosched()
	return runtime.NumGoroutine()
}

// settledGoroutines returns the goroutine count once it has held
// still for a few milliseconds (or after a second), so goroutines of
// earlier tests that are still exiting do not inflate a baseline.
func settledGoroutines() int {
	deadline := time.Now().Add(time.Second)
	n := countGoroutines()
	for stable := 0; stable < 3 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		if m := countGoroutines(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}

// waitForGoroutines polls until the goroutine count drops to at most
// want or the deadline passes, returning the last observed count.
func waitForGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := countGoroutines()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = countGoroutines()
	}
	return n
}

// TestEngineCloseReleasesWorkers pins the pool lifecycle: New starts the
// workers, Close reaps every one of them, and Close is idempotent.
func TestEngineCloseReleasesWorkers(t *testing.T) {
	snap, _ := snapshot(t)
	before := settledGoroutines()
	e := New(snap, Options{Workers: 8, CacheCapacity: 64})
	e.ClassifyBatch(testURLs(100))
	// Workers: 8 means caller + 7 pool goroutines.
	if n := countGoroutines(); n < before+7 {
		t.Fatalf("pool not running: %d goroutines, had %d before New", n, before)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if n := waitForGoroutines(before); n > before {
		t.Errorf("after Close: %d goroutines, want <= %d", n, before)
	}
}

// TestClassifyBatchAfterClose: a closed engine must still answer batches
// correctly (caller-only execution), never hang or panic.
func TestClassifyBatchAfterClose(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{Workers: 4, CacheCapacity: 64})
	urls := testURLs(50)
	want := e.ClassifyBatch(urls)
	e.Close()
	got := e.ClassifyBatch(urls)
	for i := range want {
		if got[i].Scores() != want[i].Scores() {
			t.Fatalf("post-Close batch diverged at %d", i)
		}
	}
}

// TestEngineConcurrentBatchesShareOnePool floods the pool from many
// goroutines at once: every batch must complete with correct, ordered
// results even when most assist offers are rejected.
func TestEngineConcurrentBatchesSharePool(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{Workers: 2, CacheCapacity: 0})
	defer e.Close()
	urls := testURLs(64)
	want := e.ClassifyBatch(urls)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := e.ClassifyBatch(urls)
			for i := range want {
				if got[i].URL != urls[i] || got[i].Scores() != want[i].Scores() {
					t.Errorf("concurrent pooled batch diverged at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEngineNoStats: with stats disabled the engine must classify
// normally and report a zero snapshot rather than panicking.
func TestEngineNoStats(t *testing.T) {
	snap, sys := snapshot(t)
	e := New(snap, Options{CacheCapacity: 16, NoStats: true})
	defer e.Close()
	if e.Stats() != nil {
		t.Fatal("NoStats engine still carries a collector")
	}
	u := "http://www.wetter.de/bericht"
	if e.Classify(u).Scores() != sys.Scores(u) {
		t.Error("NoStats engine classifies differently")
	}
	e.ClassifyBatch([]string{u, u, "http://autre.fr/page"})
	if snap := e.StatsSnapshot(); snap.URLs != 0 || snap.Requests != 0 {
		t.Errorf("NoStats snapshot recorded traffic: %+v", snap)
	}
	// The HTTP layer records requests through Stats(); nil must be safe.
	e.Stats().RecordRequest()
}

// TestCloseRacingBatches stresses Close against in-flight batches: every
// batch must complete with correct results, and no assist closure may
// remain buffered after Close (it would pin the batch's memory).
func TestCloseRacingBatches(t *testing.T) {
	snap, _ := snapshot(t)
	urls := testURLs(64)
	for round := 0; round < 20; round++ {
		e := New(snap, Options{Workers: 4, NoStats: true})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := e.ClassifyBatch(urls)
				for i := range got {
					if got[i].URL != urls[i] {
						t.Errorf("round %d: result %d misordered", round, i)
						return
					}
				}
			}()
		}
		e.Close() // races the batches above
		wg.Wait()
		if n := len(e.tasks); n != 0 {
			t.Fatalf("round %d: %d closures stranded in the pool after Close", round, n)
		}
	}
}
