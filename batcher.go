package urllangid

import (
	"io"

	"urllangid/internal/langid"
	"urllangid/internal/obs"
	"urllangid/internal/serve"
)

// Batcher wraps any Model with the serving engine: batch fan-out over
// a bounded number of helper goroutines, an optional sharded result
// cache keyed by the model's URL normal form, and optional serving
// statistics. Unlike Model.ClassifyBatch, a Batcher keeps its cache and
// stats across calls — build one per long-lived serving loop. It holds
// no goroutines between calls, so there is nothing to close.
//
// A Batcher is itself a Model, so it can be dropped anywhere one is
// expected; Describe and Save delegate to the wrapped model. Wrapping a
// Batcher in another Batcher does not stack engines: NewBatcher unwraps
// to the innermost model, so only the outer Batcher's workers, cache
// and stats apply — configure the one you keep, and don't nest them
// expecting the inner configuration to be consulted. It is safe for
// concurrent use.
type Batcher struct {
	model  Model
	engine *serve.Engine
}

// BatcherStats is a point-in-time view of a Batcher's serving metrics:
// throughput, cache hit-rate and latency percentiles.
type BatcherStats = serve.Snapshot

// batcherConfig collects the functional options.
type batcherConfig struct {
	workers int
	cache   int
	stats   bool
}

// A BatcherOption configures NewBatcher.
type BatcherOption func(*batcherConfig)

// WithWorkers bounds batch parallelism (default GOMAXPROCS): a batch
// runs on its caller plus up to n-1 helper goroutines, shared by every
// batch the Batcher runs at once.
func WithWorkers(n int) BatcherOption {
	return func(c *batcherConfig) { c.workers = n }
}

// WithCache enables a bounded result cache of the given capacity in
// entries (sharded CLOCK eviction). Snapshot-backed batchers key the
// cache by the structural URL normal form, so scheme, case and
// percent-encoding variants of one URL share a single entry.
func WithCache(entries int) BatcherOption {
	return func(c *batcherConfig) { c.cache = entries }
}

// WithStats enables serving metrics (throughput, cache hit-rate,
// latency percentiles), readable through Stats. Collection costs two
// clock reads per URL, so it is off by default.
func WithStats() BatcherOption {
	return func(c *batcherConfig) { c.stats = true }
}

// NewBatcher builds a Batcher over m. The zero configuration matches
// Model.ClassifyBatch semantics: GOMAXPROCS workers, no cache, no
// stats.
func NewBatcher(m Model, opts ...BatcherOption) *Batcher {
	var cfg batcherConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	b := &Batcher{model: m}
	b.engine = serve.New(enginePredictor(m), serve.Options{
		Workers:       cfg.workers,
		CacheCapacity: cfg.cache,
		NoStats:       !cfg.stats,
	})
	return b
}

// enginePredictor unwraps the concrete model forms to their internal
// scoring fast paths (compiled snapshots additionally expose the
// normalized cache key); foreign Model implementations are adapted
// through Classify. Nested Batchers unwrap to the innermost model —
// routing through the inner engine would stack caches and double-count
// stats; the type's doc comment states this contract.
func enginePredictor(m Model) serve.Predictor {
	switch v := m.(type) {
	case *Classifier:
		return v.sys
	case *Snapshot:
		return v.snap
	case *Batcher:
		return enginePredictor(v.model)
	default:
		return modelPredictor{m}
	}
}

// modelPredictor adapts a foreign Model to the serving interface.
type modelPredictor struct{ m Model }

func (p modelPredictor) Scores(rawURL string) [langid.NumLanguages]float64 {
	return p.m.Classify(rawURL).Scores()
}

// Classify classifies one URL through the engine, consulting and
// populating the cache.
//
//urllangid:hotpath
func (b *Batcher) Classify(rawURL string) Result {
	return b.engine.Classify(rawURL).Result
}

// ClassifyBatch classifies urls in parallel, one Result per URL in
// input order. With WithCache, a URL seen before — in an earlier batch,
// or earlier in this one once its first copy is scored — is served from
// the cache.
func (b *Batcher) ClassifyBatch(urls []string) []Result {
	return collapseBatch(b.engine.ClassifyBatch(urls))
}

// Describe returns the wrapped model's configuration label.
func (b *Batcher) Describe() string { return b.model.Describe() }

// Save serialises the wrapped model; the batcher configuration itself
// is runtime state and is not persisted.
func (b *Batcher) Save(w io.Writer) error { return b.model.Save(w) }

// Stats returns current serving metrics. The boolean is false when the
// batcher was built without WithStats.
func (b *Batcher) Stats() (BatcherStats, bool) {
	if b.engine.Stats() == nil {
		return BatcherStats{}, false
	}
	return b.engine.StatsSnapshot(), true
}

// WriteMetrics writes the batcher's serving metrics to w in Prometheus
// text exposition format (version 0.0.4): URL throughput, cache
// hits/misses, live cache occupancy and the scoring latency
// histogram. Embedders scrape it from their own /metrics
// handler. Without WithStats the counter families still appear,
// reading zero; the latency histogram needs WithStats and is omitted.
func (b *Batcher) WriteMetrics(w io.Writer) error {
	x := obs.NewExpoWriter(w)
	st := b.engine.Stats()
	intFamily := func(name, help string, kind obs.Kind, v int64) {
		x.Family(name, help, kind)
		x.IntSample(name, nil, v)
	}
	intFamily("urllangid_batcher_urls_total",
		"URLs classified, cached or not.", obs.KindCounter, st.URLs())
	intFamily("urllangid_batcher_cache_hits_total",
		"Result-cache hits.", obs.KindCounter, st.CacheHits())
	intFamily("urllangid_batcher_cache_misses_total",
		"Result-cache misses.", obs.KindCounter, st.CacheMisses())
	intFamily("urllangid_batcher_cache_entries",
		"Live result-cache entries.", obs.KindGauge, int64(b.engine.CacheEntries()))
	if h := st.Latency(); h != nil {
		x.Family("urllangid_batcher_latency_seconds",
			"Scoring latency of cache misses and uncached classifications.",
			obs.KindHistogram)
		x.HistogramSample("urllangid_batcher_latency_seconds", nil, h)
	}
	return x.Flush()
}
