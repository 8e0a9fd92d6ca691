package serve

import (
	"sync/atomic"
	"time"

	"urllangid/internal/obs"
)

// recentWindow is the lookback used for the "recent" QPS figure.
const recentWindow = 10 * time.Second

// secBuckets is the number of one-second QPS buckets; must exceed the
// recent window so in-window buckets are never being overwritten.
const secBuckets = 16

// Stats aggregates one engine's serving metrics on obs primitives —
// atomic counters plus a log-linear latency histogram. Recording on the
// hot path never takes a lock and never allocates; percentile reads are
// cumulative walks over fixed histogram buckets, so a scrape no longer
// copies and sorts a sample ring (the old design's 4096-float sort per
// /stats hit — measurable at production scrape rates — is gone, pinned
// by BenchmarkTakeSnapshot's 0 allocs/op).
type Stats struct {
	start    time.Time
	requests obs.Counter // serving requests (classify + stream) routed to this model
	urls     obs.Counter // URLs classified, cached or not
	hits     obs.Counter
	misses   obs.Counter
	inFlight obs.Gauge // serving requests currently holding this model
	latency  obs.Histogram
	// One-second QPS buckets, indexed by unix-second modulo secBuckets.
	// The tag-reset on second rollover is racy by design: a lost count
	// or two under contention does not matter for a rate estimate.
	bucketSec   [secBuckets]atomic.Int64
	bucketCount [secBuckets]atomic.Int64
}

// NewStats returns a zeroed stats collector anchored at now.
func NewStats() *Stats {
	s := &Stats{start: time.Now()}
	s.latency.Scale = 1e-9 // recorded in nanoseconds, exposed as seconds
	return s
}

// RecordRequest counts one serving request routed to this model.
func (s *Stats) RecordRequest() {
	if s != nil {
		s.requests.Inc()
	}
}

// IncInFlight counts a serving request entering this model; pair with
// DecInFlight.
func (s *Stats) IncInFlight() {
	if s != nil {
		s.inFlight.Add(1)
	}
}

// DecInFlight counts a serving request leaving this model.
func (s *Stats) DecInFlight() {
	if s != nil {
		s.inFlight.Add(-1)
	}
}

// RecordURL counts one classified URL on a cache-enabled engine. Cache
// hits contribute to the hit-rate but not to the latency histogram — a
// hit's latency says nothing about scoring cost.
func (s *Stats) RecordURL(d time.Duration, cached bool) {
	if s == nil {
		return
	}
	s.countURL()
	if cached {
		s.hits.Inc()
		return
	}
	s.misses.Inc()
	s.latency.Observe(int64(d))
}

// RecordUncached counts one classified URL on a cache-less engine:
// throughput and latency are tracked, but neither hit nor miss counters
// move, so /stats reads "caching disabled" rather than "0% hit-rate".
func (s *Stats) RecordUncached(d time.Duration) {
	if s == nil {
		return
	}
	s.countURL()
	s.latency.Observe(int64(d))
}

func (s *Stats) countURL() {
	s.urls.Inc()
	sec := time.Now().Unix()
	b := int(sec % secBuckets)
	if s.bucketSec[b].Load() != sec {
		s.bucketSec[b].Store(sec)
		s.bucketCount[b].Store(0)
	}
	s.bucketCount[b].Add(1)
}

// Raw metric accessors for the Prometheus exposition layer, which
// groups samples per family across models and so reads values itself
// rather than going through a Snapshot. All are nil-safe: an engine
// built with NoStats hands the scrape a nil *Stats and reads zeroes.

// Requests returns the serving-request count.
func (s *Stats) Requests() int64 {
	if s == nil {
		return 0
	}
	return s.requests.Value()
}

// URLs returns the classified-URL count.
func (s *Stats) URLs() int64 {
	if s == nil {
		return 0
	}
	return s.urls.Value()
}

// CacheHits returns the cache-hit count.
func (s *Stats) CacheHits() int64 {
	if s == nil {
		return 0
	}
	return s.hits.Value()
}

// CacheMisses returns the cache-miss count.
func (s *Stats) CacheMisses() int64 {
	if s == nil {
		return 0
	}
	return s.misses.Value()
}

// InFlight returns the serving requests currently holding this model.
func (s *Stats) InFlight() int64 {
	if s == nil {
		return 0
	}
	return s.inFlight.Value()
}

// Latency returns the live scoring-latency histogram (nanosecond
// samples, exposed scale seconds). Nil on a nil Stats.
func (s *Stats) Latency() *obs.Histogram {
	if s == nil {
		return nil
	}
	return &s.latency
}

// Snapshot is a point-in-time view of the metrics, shaped for JSON.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	URLs          int64   `json:"urls"`
	InFlight      int64   `json:"in_flight"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	// CacheHitRatio is the fraction of *all* classified URLs the cache
	// answered — hits over URLs, where CacheHitRate is hits over cache
	// lookups only. On a cache-less engine it stays 0 while CacheHitRate
	// reads "no lookups".
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	CacheEntries   int     `json:"cache_entries"`
	QPSLifetime    float64 `json:"qps_lifetime"`
	QPSRecent      float64 `json:"qps_recent"`
	LatencyP50Usec float64 `json:"latency_p50_us"`
	LatencyP90Usec float64 `json:"latency_p90_us"`
	LatencyP99Usec float64 `json:"latency_p99_us"`
}

// TakeSnapshot computes the derived figures. cacheEntries is supplied by
// the engine, which owns the cache. The percentiles are histogram-bucket
// reads (~1% relative error); the whole call allocates nothing.
func (s *Stats) TakeSnapshot(cacheEntries int) Snapshot {
	now := time.Now()
	snap := Snapshot{
		UptimeSeconds: now.Sub(s.start).Seconds(),
		Requests:      s.requests.Value(),
		URLs:          s.urls.Value(),
		InFlight:      s.inFlight.Value(),
		CacheHits:     s.hits.Value(),
		CacheMisses:   s.misses.Value(),
		CacheEntries:  cacheEntries,
	}
	if total := snap.CacheHits + snap.CacheMisses; total > 0 {
		snap.CacheHitRate = float64(snap.CacheHits) / float64(total)
	}
	if snap.URLs > 0 {
		snap.CacheHitRatio = float64(snap.CacheHits) / float64(snap.URLs)
	}
	if snap.UptimeSeconds > 0 {
		snap.QPSLifetime = float64(snap.URLs) / snap.UptimeSeconds
	}

	// Recent QPS averages the last recentWindow *complete* seconds: the
	// current second is still filling, so including its partial count
	// would inflate the rate right after a burst.
	var recent int64
	nowSec := now.Unix()
	cutoff := nowSec - int64(recentWindow.Seconds()) - 1
	for i := 0; i < secBuckets; i++ {
		if sec := s.bucketSec[i].Load(); sec > cutoff && sec < nowSec {
			recent += s.bucketCount[i].Load()
		}
	}
	snap.QPSRecent = float64(recent) / recentWindow.Seconds()

	if s.latency.Count() > 0 {
		snap.LatencyP50Usec = s.latency.Quantile(0.50) / 1e3
		snap.LatencyP90Usec = s.latency.Quantile(0.90) / 1e3
		snap.LatencyP99Usec = s.latency.Quantile(0.99) / 1e3
	}
	return snap
}
