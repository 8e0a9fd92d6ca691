// Package serve is the high-throughput serving layer: a batch engine
// with a sharded result cache over any scorer, plus the HTTP front end
// cmd/urllangid-serve exposes.
//
// The paper's motivating application (§1) is a crawler that classifies
// millions of *uncrawled* URLs to avoid downloading wrong-language
// pages; at that scale classification throughput, not accuracy, is the
// binding constraint, and frontier URLs repeat hosts so heavily that a
// modest cache absorbs most of the scoring work. The engine is built for
// exactly that workload: lock-light cached reads, batches spread over
// per-batch helper goroutines, and compiled-snapshot scoring
// underneath. An engine owns no goroutines between calls, so it needs
// no Close.
package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"urllangid/internal/langid"
)

// Predictor is the scoring contract the engine serves. Compiled
// snapshots, cascades, *core.System and the public urllangid adapters
// all implement it.
type Predictor interface {
	Scores(rawURL string) [langid.NumLanguages]float64
}

// KeyScorer is the optional contract of a predictor that declares which
// URLs it considers equivalent. Compiled snapshots return the
// normalized URL as the key, so scheme and percent-encoding variants
// share one cache entry, and score from the key without re-deriving its
// normal form. Implementations must guarantee
// ScoresForKey(CacheKey(u)) == Scores(u) for every URL. Predictors
// without it are cached under the raw URL, which is always sound
// (custom features score the raw string's length, so normalizing for
// them would change answers).
type KeyScorer interface {
	CacheKey(rawURL string) string
	ScoresForKey(key string) [langid.NumLanguages]float64
}

// Options configures an Engine. The zero value serves with GOMAXPROCS
// workers and caching disabled.
type Options struct {
	// Workers bounds batch parallelism (default GOMAXPROCS). A batch
	// runs on its caller plus up to Workers-1 helper goroutines, and all
	// of the engine's batches together run at most Workers-1 helpers.
	Workers int
	// CacheCapacity is the total cached-result budget across shards;
	// 0 disables caching.
	CacheCapacity int
	// NoStats disables metrics collection entirely — no clock reads on
	// the classify path. StatsSnapshot then reports zeroes. With stats,
	// each call costs two clock reads and one Stats record, whatever
	// its URL count.
	NoStats bool
}

// Result is one URL's classification: the shared langid.Result value
// (scores plus decision bits) tagged with the URL it answers and whether
// the cache served it.
type Result struct {
	URL string
	langid.Result
	Cached bool
}

// Engine classifies URLs through a predictor with batching and caching.
// It is safe for concurrent use, and it owns no goroutines: every
// helper a batch starts has exited by the time ClassifyBatch returns.
type Engine struct {
	pred      Predictor
	keyScorer KeyScorer // nil when pred does not key its cache entries
	cache     *lruCache
	stats     *Stats
	workers   int
	// helpers is a semaphore holding one token per running batch helper.
	// Its capacity, workers-1, is the helper budget all batches share.
	// A batch takes tokens without blocking: once none is free, its
	// caller goes on with the helpers it has.
	helpers chan struct{}
}

// New builds an engine over p.
func New(p Predictor, opts Options) *Engine {
	e := &Engine{
		pred:    p,
		cache:   newCache(cacheShards, opts.CacheCapacity),
		workers: opts.Workers,
	}
	if !opts.NoStats {
		e.stats = NewStats()
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	e.keyScorer, _ = p.(KeyScorer)
	e.helpers = make(chan struct{}, e.workers-1)
	return e
}

// Stats returns the engine's live metrics collector (shared with the
// HTTP layer, which adds request counts). Nil when Options.NoStats was
// set; the recording methods tolerate a nil receiver.
func (e *Engine) Stats() *Stats { return e.stats }

// Predictor returns the raw predictor the engine wraps. The serving
// layers type-assert it for optional contracts the engine itself does
// not surface — a cascade's tier stats, for instance — and a cascade
// scores its tiers through it, bypassing their engines.
//
//urllangid:hotpath
func (e *Engine) Predictor() Predictor { return e.pred }

// StatsSnapshot returns current metrics, including cache occupancy.
func (e *Engine) StatsSnapshot() Snapshot {
	if e.stats == nil {
		return Snapshot{}
	}
	return e.stats.TakeSnapshot(e.CacheEntries())
}

// CacheEntries returns the live cached-result count (0 when caching is
// disabled). Exposed for the metrics scrape, which samples it as a
// per-model gauge.
func (e *Engine) CacheEntries() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.len()
}

// Classify classifies one URL, consulting and populating the cache.
// It never fails: malformed URLs tokenize to nothing and score like any
// other token-free input. It is a batch of one: its stats record is one
// call of one URL.
//
//urllangid:hotpath
func (e *Engine) Classify(rawURL string) Result {
	var start time.Time
	if e.stats != nil {
		start = time.Now()
	}
	out := [1]Result{e.classify(rawURL)}
	e.record(start, out[:])
	return out[0]
}

// classify scores one URL through the cache. It reads no clock and
// records nothing: the call it belongs to accounts for it.
func (e *Engine) classify(rawURL string) Result {
	r := Result{URL: rawURL}
	if e.cache == nil {
		r.Result = langid.NewResult(e.pred.Scores(rawURL))
		return r
	}
	key := rawURL
	if e.keyScorer != nil {
		key = e.keyScorer.CacheKey(rawURL)
	}
	scores, ok := e.cache.get(key)
	if ok {
		r.Result, r.Cached = langid.NewResult(scores), true
		return r
	}
	if e.keyScorer != nil {
		// The key already carries the predictor's normal form; score
		// from it directly rather than re-normalizing the raw URL.
		scores = e.keyScorer.ScoresForKey(key)
	} else {
		scores = e.pred.Scores(rawURL)
	}
	r.Result = langid.NewResult(scores)
	e.cache.put(key, scores)
	return r
}

// record makes the one stats record of a call that began at start and
// answered out. An empty call records nothing, so every latency sample
// timed some URLs.
func (e *Engine) record(start time.Time, out []Result) {
	if e.stats == nil || len(out) == 0 {
		return
	}
	hits := 0
	for i := range out {
		if out[i].Cached {
			hits++
		}
	}
	e.stats.RecordBatch(start, len(out), hits, e.cache != nil)
}

// ClassifyBatch classifies urls, preserving input order in the result
// slice; each result equals what Classify returns for its URL. The
// caller and up to min(Workers, len(urls))-1 helper goroutines pull
// URLs from a shared atomic counter, so a slow URL (cold cache, long
// path) never stalls a pre-assigned chunk. Helpers start only while the
// engine's helper budget has room, so concurrent batches share
// Workers-1 helpers and a busy engine only costs parallelism: the
// caller always works its own batch to completion. The batch is one
// stats record, made after its last URL.
func (e *Engine) ClassifyBatch(urls []string) []Result {
	var start time.Time
	if e.stats != nil {
		start = time.Now()
	}
	out := make([]Result, len(urls))
	if min(e.workers, len(urls)) <= 1 {
		for i, u := range urls {
			out[i] = e.classify(u)
		}
		e.record(start, out)
		return out
	}
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(urls) {
				return
			}
			out[i] = e.classify(urls[i])
		}
	}
	var done sync.WaitGroup
spawn:
	for h := 1; h < min(e.workers, len(urls)); h++ {
		select {
		case e.helpers <- struct{}{}:
		default:
			break spawn // the budget is spent: the caller goes on alone
		}
		done.Add(1)
		go func() {
			run()
			<-e.helpers
			done.Done()
		}()
	}
	run()
	done.Wait()
	e.record(start, out)
	return out
}
