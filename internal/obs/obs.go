// Package obs is the dependency-free observability core behind the
// serving stack: atomic counters and gauges, log-linear latency
// histograms, Prometheus text exposition, and a per-request stage
// trace.
//
// The design splits recording from exposition. Recording — Counter.Add,
// Gauge.Set, Histogram.Observe — is a handful of atomic operations: no
// locks, no clock reads, and zero heap allocations (pinned by test).
// Trace.Add is a plain add, since only a request's handler goroutine
// writes its trace. Exposition — the Registry walk and ExpoWriter —
// runs once per scrape and may allocate freely; percentiles are
// cumulative reads over fixed histogram buckets.
//
// Metric values here carry no labels of their own. A labelled family is
// a set of value handles keyed by label set — either pre-created through
// a Registry (server-level metrics, fixed route set) or written directly
// through an ExpoWriter by a caller that owns the grouping (the per-model
// families, whose engines come and go with registry swaps and so cannot
// live in a process-lifetime registry).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

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

// Set replaces the gauge value.
//
//urllangid:hotpath
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
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

// Registry holds named metric families whose instances live for the
// process lifetime (the HTTP tier's per-path counters and request
// histograms). Get-or-create is idempotent: asking for the same name and
// label set returns the same handle, so callers may resolve handles per
// request without double counting. Families expose in registration
// order; instances within a family in sorted label order, so the text
// output is deterministic.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

type family struct {
	name, help string
	kind       Kind

	mu   sync.RWMutex
	inst map[string]*instance
	keys []string // sorted lazily at exposition
}

type instance struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// labelKey builds the map key identifying one label set within a
// family. 0xff cannot appear in metric label UTF-8 text boundaries we
// emit, making the join unambiguous.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(0xff)
		b.WriteString(l.Value)
		b.WriteByte(0xfe)
	}
	return b.String()
}

// getFamily returns the named family, creating it with the given kind
// and help on first use. A kind mismatch against an existing family is
// a programming error and panics.
func (r *Registry) getFamily(name, help string, kind Kind) *family {
	r.mu.RLock()
	f := r.byName[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.byName[name]; f == nil {
			f = &family{name: name, help: help, kind: kind, inst: make(map[string]*instance)}
			r.byName[name] = f
			r.families = append(r.families, f)
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// get returns the instance for the label set, creating it via mk on
// first use. The labels slice is copied on create, so callers may reuse
// their argument buffer.
func (f *family) get(labels []Label, mk func() *instance) *instance {
	k := labelKey(labels)
	f.mu.RLock()
	in := f.inst[k]
	f.mu.RUnlock()
	if in != nil {
		return in
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if in = f.inst[k]; in != nil {
		return in
	}
	in = mk()
	in.labels = append([]Label(nil), labels...)
	f.inst[k] = in
	f.keys = nil // invalidate the sorted order
	return in
}

// Counter returns the counter named name with the given label set,
// creating the family (with help) and instance on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.getFamily(name, help, KindCounter)
	return f.get(labels, func() *instance { return &instance{c: new(Counter)} }).c
}

// Gauge returns the gauge named name with the given label set.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.getFamily(name, help, KindGauge)
	return f.get(labels, func() *instance { return &instance{g: new(Gauge)} }).g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time — for values that already live somewhere (uptime, goroutine
// counts) and would otherwise need a copy kept in sync.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.getFamily(name, help, KindGauge)
	f.get(labels, func() *instance { return &instance{fn: fn} })
}

// Histogram returns the histogram named name with the given label set.
// scale converts recorded values to the exposed unit (1e-9 for
// nanosecond recordings exposed as seconds); it is fixed by the first
// creation of the family.
func (r *Registry) Histogram(name, help string, scale float64, labels ...Label) *Histogram {
	f := r.getFamily(name, help, KindHistogram)
	return f.get(labels, func() *instance { return &instance{h: NewHistogram(scale)} }).h
}

// sorted returns the family's instances in sorted label-key order,
// computing and caching the order on first use after a change.
func (f *family) sorted() []*instance {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.keys == nil {
		f.keys = make([]string, 0, len(f.inst))
		for k := range f.inst {
			f.keys = append(f.keys, k)
		}
		sort.Strings(f.keys)
	}
	out := make([]*instance, len(f.keys))
	for i, k := range f.keys {
		out[i] = f.inst[k]
	}
	return out
}
