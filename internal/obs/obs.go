// Package obs is the dependency-free observability core behind the
// serving stack: atomic counters and gauges, log-linear latency
// histograms, Prometheus text exposition, and a per-request stage
// trace.
//
// The design splits recording from exposition. Recording — Counter.Add,
// Gauge.Add, Histogram.Observe — is a handful of atomic operations: no
// locks, no clock reads, and zero heap allocations (pinned by test).
// Trace.Add is a plain add, since only a request's handler goroutine
// writes its trace. Exposition — ExpoWriter — runs once per scrape and
// may allocate freely; percentiles are cumulative reads over fixed
// histogram buckets.
//
// Metric values here carry no labels of their own, and the package
// keeps no catalogue of them. Each value lives in the struct that owns
// it (an HTTP route, an engine's stats, a registry slot), and the
// owner writes its families through an ExpoWriter at scrape time,
// naming the labels from what it is: a route pattern, a status code, a
// model slot.
package obs

import "sync/atomic"

// Label is one metric dimension. Label values must come from bounded
// sets (route patterns, model names, status codes) — never from request
// data — or the exposition grows without bound.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing value. The zero Counter is
// ready to use; Add and Inc are single atomic adds.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Nil-safe so disabled stats paths need no branching.
//
//urllangid:hotpath
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n, which must be non-negative for the value to remain a
// counter in the Prometheus sense.
//
//urllangid:hotpath
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down (in-flight requests, queue
// depth). The zero Gauge is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (negative to decrement). Nil-safe.
//
//urllangid:hotpath
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Kind is the Prometheus metric type of a family.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}
