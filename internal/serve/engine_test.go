package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
		cachePut(c, fmt.Sprintf("k%d", i), s)
	}
	if n := c.len(); n != 4 {
		t.Errorf("cache grew to %d entries, capacity 4", n)
	}
	// The most recently inserted key must have survived.
	if _, ok := cacheGet(c, "k15"); !ok {
		t.Error("latest insert evicted")
	}
}

func TestCacheSecondChance(t *testing.T) {
	c := newCache(1, 2)
	var s [langid.NumLanguages]float64
	cachePut(c, "hot", s)
	cachePut(c, "cold", s)
	cacheGet(c, "hot") // referenced: survives one eviction round
	cachePut(c, "new", s)
	if _, ok := cacheGet(c, "hot"); !ok {
		t.Error("referenced entry evicted before unreferenced one")
	}
	if _, ok := cacheGet(c, "cold"); ok {
		t.Error("unreferenced entry survived")
	}
}

func TestEngineConcurrentMixedLoad(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{Workers: 4, CacheCapacity: 256})
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

// countingPredictor is a stub whose score depends on the URL. It
// counts its Scores calls, and the calls running at once and their
// peak.
type countingPredictor struct {
	calls, running, peak atomic.Int64
}

func (p *countingPredictor) Scores(rawURL string) [langid.NumLanguages]float64 {
	p.calls.Add(1)
	n := p.running.Add(1)
	for old := p.peak.Load(); n > old && !p.peak.CompareAndSwap(old, n); old = p.peak.Load() {
	}
	runtime.Gosched() // let calls that could overlap this one do so
	var s [langid.NumLanguages]float64
	for li := range s {
		s[li] = float64(len(rawURL) + li)
	}
	p.running.Add(-1)
	return s
}

// TestEngineKeyScorerMissPath pins the miss path of a KeyScorer
// predictor: it is driven through ScoresForKey with the key, not
// through Scores with the raw URL.
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

// TestClassifyBatchDeduplicates pins how a batch treats a repeated URL:
// every copy gets its own result, in input order and with its URL's
// scores, and counts as traffic. Only the cache collapses repeats: a
// copy classified after its first copy is a cache hit, scored no
// second time, and a cache-less engine scores and reports every copy
// as fresh.
func TestClassifyBatchDeduplicates(t *testing.T) {
	urls := []string{
		"http://a.de/1", "http://b.fr/2", "http://a.de/1", "http://c.es/3",
		"http://a.de/1", "http://b.fr/2",
	}
	for _, tc := range []struct {
		name         string
		opts         Options
		scorings     int64
		hits, misses int64
	}{
		{"no cache", Options{Workers: 4}, 6, 0, 0},
		// One worker classifies the batch in input order, so every
		// repeat follows its first copy.
		{"cache", Options{Workers: 1, CacheCapacity: 64}, 3, 3, 3},
	} {
		p := &countingPredictor{}
		e := New(p, tc.opts)
		out := e.ClassifyBatch(urls)
		if len(out) != len(urls) {
			t.Fatalf("%s: got %d results for %d urls", tc.name, len(out), len(urls))
		}
		if n := p.calls.Load(); n != tc.scorings {
			t.Errorf("%s: scored %d times, want %d", tc.name, n, tc.scorings)
		}
		seen := map[string]bool{}
		for i, r := range out {
			if r.URL != urls[i] {
				t.Errorf("%s: result %d is for %q, want %q", tc.name, i, r.URL, urls[i])
			}
			if r.Scores() != p.Scores(urls[i]) {
				t.Errorf("%s: result %d has wrong scores", tc.name, i)
			}
			if want := tc.opts.CacheCapacity > 0 && seen[urls[i]]; r.Cached != want {
				t.Errorf("%s: result %d cached = %v, want %v", tc.name, i, r.Cached, want)
			}
			seen[urls[i]] = true
		}
		stats := e.StatsSnapshot()
		if stats.URLs != int64(len(urls)) {
			t.Errorf("%s: URLs = %d, want %d (duplicates still count as traffic)", tc.name, stats.URLs, len(urls))
		}
		if stats.CacheHits != tc.hits || stats.CacheMisses != tc.misses {
			t.Errorf("%s: hits/misses = %d/%d, want %d/%d", tc.name, stats.CacheHits, stats.CacheMisses, tc.hits, tc.misses)
		}
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
	// *core.System implements Scores but not KeyScorer: the engine
	// must key the cache by raw URL.
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

// TestEngineConcurrentBatchesSharePool pins the helper budget all
// batches share: 16 concurrent batches on a Workers: 3 engine score on
// at most their 16 callers plus 2 helpers at once, each batch answers
// in input order exactly as Classify does, and once every batch has
// returned no helper token is held.
func TestEngineConcurrentBatchesSharePool(t *testing.T) {
	p := &countingPredictor{}
	e := New(p, Options{Workers: 3, NoStats: true})
	urls := testURLs(256)
	var got [16][]Result
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = e.ClassifyBatch(urls)
		}()
	}
	wg.Wait()
	if n := len(e.helpers); n != 0 {
		t.Errorf("%d helper tokens held after every batch returned", n)
	}
	if peak := p.peak.Load(); peak > 16+2 {
		t.Errorf("%d concurrent Scores calls, want at most 16 callers + 2 helpers", peak)
	}
	for _, res := range got {
		for i, r := range res {
			if r.URL != urls[i] || r.Result != e.Classify(urls[i]).Result {
				t.Fatalf("result %d = %+v, want Classify(%q)", i, r, urls[i])
			}
		}
	}
}

// corruptPredictor panics on every score until healed, as a snapshot
// whose file fails verification does. Healed, a call waits (up to a
// minute) until a second call runs beside it, so a batch of two or more
// URLs returns quickly only if it scored on two goroutines.
type corruptPredictor struct {
	healed atomic.Bool
	calls  atomic.Int64
	pair   chan struct{}
}

func (p *corruptPredictor) Scores(rawURL string) [langid.NumLanguages]float64 {
	if !p.healed.Load() {
		panic("corrupt model")
	}
	if p.calls.Add(1) == 2 {
		close(p.pair)
	}
	select {
	case <-p.pair:
	case <-time.After(time.Minute):
	}
	return [langid.NumLanguages]float64{}
}

// TestClassifyBatchHelperPanic: a panic while scoring reaches the
// batch's caller on its own goroutine, once every helper has returned
// its token, where a helper's panic used to end the process. A later
// batch on the same engine still scores on a helper beside its caller.
func TestClassifyBatchHelperPanic(t *testing.T) {
	p := &corruptPredictor{pair: make(chan struct{})}
	e := New(p, Options{Workers: 2, NoStats: true})
	urls := testURLs(64)
	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				if v := recover(); v != "corrupt model" {
					t.Errorf("batch %d raised %v, want the predictor's panic", i, v)
				}
			}()
			e.ClassifyBatch(urls)
		}()
		if n := len(e.helpers); n != 0 {
			t.Fatalf("batch %d: %d helper tokens held after the batch panicked", i, n)
		}
	}
	p.healed.Store(true)
	start := time.Now()
	if res := e.ClassifyBatch(urls[:2]); res[1].URL != urls[1] {
		t.Fatalf("healed batch answered %+v", res)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("healed batch took %v: it ran without a helper", d)
	}
}

// TestEngineAccountsPerCall pins the stats contract: an engine call —
// a batch of any size, or one Classify — is one latency sample and one
// add of its URL count, and only a cached engine counts lookups.
func TestEngineAccountsPerCall(t *testing.T) {
	urls := make([]string, 64)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://seite%d.de/", i%16) // each URL four times
	}
	for _, tc := range []struct {
		name  string
		cache int
	}{{"cache", 64}, {"no cache", 0}} {
		e := New(&countingPredictor{}, Options{Workers: 4, CacheCapacity: tc.cache})
		st := e.Stats()
		check := func(call string, samples, n int64) {
			t.Helper()
			if got := st.Latency().Count(); got != samples {
				t.Errorf("%s: after %s, %d latency samples, want %d", tc.name, call, got, samples)
			}
			if got := st.URLs(); got != n {
				t.Errorf("%s: after %s, URLs = %d, want %d", tc.name, call, got, n)
			}
			lookups := n
			if tc.cache == 0 {
				lookups = 0
			}
			if got := st.CacheHits() + st.CacheMisses(); got != lookups {
				t.Errorf("%s: after %s, hits+misses = %d, want %d", tc.name, call, got, lookups)
			}
		}
		e.ClassifyBatch(urls)
		check("a 64-URL batch", 1, 64)
		e.Classify(urls[0])
		check("one Classify", 2, 65)
	}
}

// TestEngineNoStats: with stats disabled the engine must classify
// normally and report a zero snapshot rather than panicking.
func TestEngineNoStats(t *testing.T) {
	snap, sys := snapshot(t)
	e := New(snap, Options{CacheCapacity: 16, NoStats: true})
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
