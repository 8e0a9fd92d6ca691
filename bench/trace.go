package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"urllangid/internal/cascade"
	"urllangid/internal/registry"
	"urllangid/internal/serve"
	"urllangid/internal/strtab"
	"urllangid/internal/urlx"
)

// layer names a span of the traced replay. The names are the per-layer
// metric prefixes: package, then the call.
type layer uint8

const (
	lHandler layer = iota
	lAcquire
	lEngine
	lCascade
	lNormalize
	lTokenize
	lLookup
	lFastScore
	lSlowScore
	numLayers
)

var layerNames = [numLayers]string{
	"serve.handler", "registry.acquire", "serve.engine", "cascade.url",
	"urlx.normalize", "urlx.tokenize", "strtab.lookup",
	"compiled.fast_score", "compiled.slow_score",
}

// streamChunk is the serve package's NDJSON micro-batch: the stream
// handler calls the engine once per this many lines.
const streamChunk = 512

// span is one timed call, or one loop of calls of one kind, made by the
// replay. Ids count from 1 in the order spans begin. Parent is the span
// of the layer that makes the call in production, or 0 where production
// makes no such call on this workload. Spans of one request share its
// trace id.
type span struct {
	id, trace, parent int32
	layer             layer
	calls             int32
	start, end        int64 // ns since the replay began
}

// tracer holds the spans in memory until the run ends. Each goroutine of
// the replay records into a recorder of its own, so that recording takes
// no lock; one counter numbers the spans of all of them.
type tracer struct {
	t0   time.Time
	ids  atomic.Int32
	recs [clients]recorder
}

type recorder struct {
	t     *tracer
	spans []span
}

// begin opens a span and returns its id.
func (r *recorder) begin(trace, parent int32, l layer) int32 {
	id := r.t.ids.Add(1)
	r.spans = append(r.spans, span{id: id, trace: trace, parent: parent, layer: l, start: int64(time.Since(r.t.t0))})
	return id
}

// end closes span id, which covered calls calls. Spans close in the
// reverse of the order they opened, so id is among the last few.
func (r *recorder) end(id int32, calls int) {
	end := int64(time.Since(r.t.t0))
	i := len(r.spans) - 1
	for r.spans[i].id != id {
		i--
	}
	r.spans[i].end, r.spans[i].calls = end, int32(calls)
}

// spans returns every recorder's spans, ordered by id.
func (t *tracer) spans() []span {
	all := make([]span, t.ids.Load())
	for _, r := range t.recs {
		for _, s := range r.spans {
			all[s.id-1] = s
		}
	}
	return all
}

// layerTotals sums one layer's spans: their time, the calls they cover,
// and the time of the spans they parent. Self time is total − children.
type layerTotals struct{ total, children, calls int64 }

func summarize(spans []span) [numLayers]layerTotals {
	var sum [numLayers]layerTotals
	for _, s := range spans {
		sum[s.layer].total += s.end - s.start
		sum[s.layer].calls += int64(s.calls)
		if s.parent > 0 {
			sum[spans[s.parent-1].layer].children += s.end - s.start
		}
	}
	return sum
}

// replay re-runs a workload's first requests in-process, as calls into
// each layer's public functions, in three passes: the handler, then the
// engine batches each handler call makes, then per engine batch the
// cascade or cache path down to normalize, tokenize and table lookup.
//
// The handler pass sends every other request through a traced handler
// and the rest through an untraced one, so that the two interleave
// request by request under the same host conditions; both share one
// registry, so that its cache sees every request in order, as the
// server's does. The engine pass replays every request, on a registry of
// its own, and records spans for the traced ones; the layer pass replays
// the calls below the engine for those. Both registries are loaded from
// the server's model files with the server's cache size and engine
// workers. A child span is therefore a second execution of the call its
// parent made, not a part of the parent's execution, and self time,
// span minus children, is a difference between passes. Only the
// registry acquire and release a handler makes are timed inside the
// handler call (see tracedResolver).
//
// The handler and engine passes run the requests two at a time, one per
// goroutine, on the server's processor count: the closed loop keeps two
// requests in the server, whose CPUs they share with each other, the
// engine's workers and the garbage collector. The layer pass runs alone,
// since each of its spans times one kind of call in a loop.
//
// The requests are replayed in chunks, one after each measured window,
// so that the handler time is taken under the same host conditions as
// the latency it is set against.
type replay struct {
	w    *workload
	tr   tracer
	regs [2]*registry.Registry // handler pass; engine and layer passes
	// The untraced handler, and each goroutine's traced handler, which
	// reaches the registry through its own resolver.
	untraced  http.Handler
	resolvers [clients]*tracedResolver
	traced    [clients]http.Handler
	eng       *serve.Engine
	casc      *cascade.Cascade
	fast      serve.KeyScorer
	slow      serve.KeyScorer
	table     strtab.Table
	release   []func()

	mu sync.Mutex // guards the counts the handler pass adds to
	// requests and tracedTime count the traced handler calls,
	// untracedCalls and untracedTime the untraced ones.
	requests, untracedCalls, attempted, failed int
	tracedTime, untracedTime                   time.Duration
	cascaded, escalated                        int

	// Scratch of the layer pass, and a sink for results the compiler must
	// not drop.
	offPath                 []string
	escalations             []string
	keys, missKeys, escKeys []string
	toks                    []string
	count                   func(string) // counts tokens into sink
	sink                    float64
}

// batch is one engine call of the replay: the distinct URLs it worked,
// in first-occurrence order, and which of them the cache answered.
type batch struct {
	tid, eid int32
	distinct []string
	hit      []bool
}

func newReplay(fx *fixture, w *workload, workers int) (*replay, error) {
	rp := &replay{w: w, table: strtab.New(fx.fastVocab)}
	rp.count = func(string) { rp.sink++ }
	for i := range rp.regs {
		reg, err := newRegistry(fx, cacheEntries, workers)
		if err != nil {
			rp.close()
			return nil, err
		}
		rp.regs[i] = reg
		if err := warmRegistry(reg, w); err != nil {
			rp.close()
			return nil, err
		}
	}
	var engines [4]*serve.Engine
	for i, slot := range []string{w.slot, "fast", "slow", "cascade"} {
		l, err := rp.regs[1].Acquire(slot)
		if err != nil {
			rp.close()
			return nil, err
		}
		rp.release = append(rp.release, l.Release)
		engines[i] = l.Engine()
	}
	rp.eng = engines[0]
	rp.fast = engines[1].Predictor().(serve.KeyScorer)
	rp.slow = engines[2].Predictor().(serve.KeyScorer)
	rp.casc = engines[3].Predictor().(*cascade.Cascade)
	rp.untraced = serve.NewHandler(rp.regs[0], serve.HandlerOptions{})
	for g := range rp.traced {
		rp.tr.recs[g].t = &rp.tr
		rp.resolvers[g] = &tracedResolver{Registry: rp.regs[0], rec: &rp.tr.recs[g]}
		rp.traced[g] = serve.NewHandler(rp.resolvers[g], serve.HandlerOptions{})
	}
	rp.tr.t0 = time.Now()
	return rp, nil
}

func (rp *replay) close() {
	for _, release := range rp.release {
		release()
	}
	for _, reg := range rp.regs {
		if reg != nil {
			reg.Close()
		}
	}
}

// run replays requests [from, to).
func (rp *replay) run(from, to int) error {
	handlers := make([]int32, to-from)
	if err := perClient(from, to, func(g int) error { return rp.handlerPass(g, from, to, handlers) }); err != nil {
		return err
	}
	// The passes below allocate little; collecting the handler pass's
	// garbage first keeps its cost out of their spans.
	runtime.GC()
	batches := make([][]batch, to-from)
	perClient(from, to, func(g int) error { rp.enginePass(g, from, to, handlers, batches); return nil })
	runtime.GC()
	rp.layerPass(slices.Concat(batches...))
	return nil
}

// perClient runs pass(0) … pass(clients-1) at once and waits for them.
// Goroutine g replays requests from+g, from+g+clients, … below to.
func perClient(from, to int, pass func(g int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients && from+g < to; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = pass(g)
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// tracedResolver is the registry as one goroutine's traced handler sees
// it: each Resolve the handler makes, and the release of what it
// resolved, is a registry.acquire span inside the handler call's span.
type tracedResolver struct {
	*registry.Registry
	rec           *recorder
	trace, parent int32 // the handler call in progress
}

func (r *tracedResolver) Resolve(name string) (*serve.Engine, serve.ModelInfo, func(), error) {
	id := r.rec.begin(r.trace, r.parent, lAcquire)
	e, info, release, err := r.Registry.Resolve(name)
	r.rec.end(id, 1)
	if err != nil {
		return e, info, release, err
	}
	trace, parent := r.trace, r.parent
	return e, info, func() {
		id := r.rec.begin(trace, parent, lAcquire)
		release()
		r.rec.end(id, 0)
	}, nil
}

// isTraced reports whether request i goes through the traced handler.
// The two goroutines work on requests i and i+1 at once, so both are on
// the same side at any time.
func isTraced(i int) bool { return i/clients%2 == 0 }

// handlerPass sends goroutine g's share of requests [from, to) through
// the traced or the untraced handler, checks every answer, and records
// the traced calls' span ids in handlers.
func (rp *replay) handlerPass(g, from, to int, handlers []int32) error {
	res, h := rp.resolvers[g], rp.traced[g]
	var n [2]int // untraced, traced
	var d [2]time.Duration
	var failed int
	for i := from + g; i < to; i += clients {
		r := &rp.w.reqs[i]
		var body []byte
		var err error
		t0 := time.Now()
		if isTraced(i) {
			res.trace = int32(i + 1)
			res.parent = res.rec.begin(res.trace, 0, lHandler)
			body, err = serveOnce(h, rp.w, r.body)
			res.rec.end(res.parent, 1)
			handlers[i-from] = res.parent
			d[1] += time.Since(t0)
			n[1]++
		} else {
			body, err = serveOnce(rp.untraced, rp.w, r.body)
			d[0] += time.Since(t0)
			n[0]++
		}
		if err != nil || !matches(body, r.sum) {
			failed++
		}
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.untracedCalls += n[0]
	rp.requests += n[1]
	rp.attempted += n[0] + n[1]
	rp.failed += failed
	rp.untracedTime += d[0]
	rp.tracedTime += d[1]
	return nil
}

// handlerMean is the traced handler's mean time per request so far.
func (rp *replay) handlerMean() time.Duration {
	return rp.tracedTime / time.Duration(max(rp.requests, 1))
}

// overhead is the traced handler's mean time per request over the
// untraced one's. The traced call is the only one that records spans
// inside it, the resolver's; every other span times a whole call or
// loop of calls from outside. So a ratio near 1 says that recording
// spans does not inflate the times the spans report.
func (rp *replay) overhead() float64 {
	return float64(rp.handlerMean()) / float64(rp.untracedTime/time.Duration(max(rp.untracedCalls, 1)))
}

// warmRegistry classifies the workload's warm-up URLs, so the replay
// starts from the cache state the measured phase saw.
func warmRegistry(reg *registry.Registry, w *workload) error {
	l, err := reg.Acquire(w.slot)
	if err != nil {
		return err
	}
	defer l.Release()
	for _, u := range w.warmURLs {
		l.Engine().Classify(u)
	}
	return nil
}

// enginePass replays the engine batches of goroutine g's share of
// requests [from, to), and for the traced requests records their spans
// and what every batch worked.
func (rp *replay) enginePass(g, from, to int, handlers []int32, batches [][]batch) {
	rec := &rp.tr.recs[g]
	seen := make(map[string]struct{})
	for i := from + g; i < to; i += clients {
		tid, hid, r := int32(i+1), handlers[i-from], &rp.w.reqs[i]
		chunk := len(r.urls)
		if rp.w.path == "/v1/stream" {
			chunk = streamChunk
		}
		for off := 0; off < len(r.urls); off += chunk {
			urls := r.urls[off:min(off+chunk, len(r.urls))]
			if hid == 0 {
				rp.eng.ClassifyBatch(urls)
				continue
			}
			eid := rec.begin(tid, hid, lEngine)
			res := rp.eng.ClassifyBatch(urls)
			rec.end(eid, 1)
			b := batch{tid: tid, eid: eid}
			// The engine works each distinct URL once, in first-occurrence order.
			clear(seen)
			for k, u := range urls {
				if _, dup := seen[u]; !dup {
					seen[u] = struct{}{}
					b.distinct = append(b.distinct, u)
					b.hit = append(b.hit, res[k].Cached)
				}
			}
			batches[i-from] = append(batches[i-from], b)
		}
	}
}

// layerPass replays, per engine batch, the calls below the engine.
func (rp *replay) layerPass(batches []batch) {
	rec := &rp.tr.recs[0] // the layer pass runs alone
	for _, b := range batches {
		if rp.w.slot == "cascade" {
			rp.cascadeLayers(b.tid, b.eid, b.distinct)
			continue
		}
		// A cached slot normalizes every URL into its cache key and
		// scores the misses on the fast tier.
		id := rec.begin(b.tid, b.eid, lNormalize)
		rp.keys = normalizeAll(rp.keys[:0], b.distinct)
		rec.end(id, len(b.distinct))
		rp.missKeys = rp.missKeys[:0]
		for j, k := range rp.keys {
			if !b.hit[j] {
				rp.missKeys = append(rp.missKeys, k)
			}
		}
		rp.fastLayers(b.tid, b.eid, rp.missKeys)
		// The cascade is off this workload's path. Its layers are timed
		// on the same URLs as root spans, at least a crawl batch at a
		// time, so that every workload reports them.
		rp.offPath = append(rp.offPath, b.distinct...)
		if len(rp.offPath) >= crawlBatch || b.tid == batches[len(batches)-1].tid {
			rp.cascadeLayers(b.tid, 0, rp.offPath)
			rp.offPath = rp.offPath[:0]
		}
	}
}

// cascadeLayers times the cascade over urls, then its calls one layer
// at a time: the tier pins, the normalize each tier call makes, fast
// scoring, and slow scoring of the URLs the cascade escalated.
func (rp *replay) cascadeLayers(tid, parent int32, urls []string) {
	rec := &rp.tr.recs[0] // the layer pass runs alone
	st := rp.casc.TierStats()
	rp.escalations = rp.escalations[:0]
	cid := rec.begin(tid, parent, lCascade)
	for _, u := range urls {
		before := st.Escalations()
		rp.sink += rp.casc.Scores(u)[0]
		if st.Escalations() != before {
			rp.escalations = append(rp.escalations, u)
		}
	}
	rec.end(cid, len(urls))
	rp.cascaded += len(urls)
	rp.escalated += len(rp.escalations)

	id := rec.begin(tid, cid, lAcquire)
	for range urls {
		if l, err := rp.regs[1].Acquire("fast"); err == nil {
			l.Release()
		}
	}
	for range rp.escalations {
		if l, err := rp.regs[1].Acquire("slow"); err == nil {
			l.Release()
		}
	}
	rec.end(id, len(urls)+len(rp.escalations))

	id = rec.begin(tid, cid, lNormalize)
	rp.keys = normalizeAll(rp.keys[:0], urls)
	rp.escKeys = normalizeAll(rp.escKeys[:0], rp.escalations)
	rec.end(id, len(urls)+len(rp.escalations))

	rp.fastLayers(tid, cid, rp.keys)
	if len(rp.escKeys) > 0 {
		id = rec.begin(tid, cid, lSlowScore)
		for _, k := range rp.escKeys {
			rp.sink += rp.slow.ScoresForKey(k)[0]
		}
		rec.end(id, len(rp.escKeys))
	}
}

// fastLayers times fast-tier scoring of normalized keys, then the two
// steps inside it: the token walk, and looking the tokens up in the
// table.
func (rp *replay) fastLayers(tid, parent int32, keys []string) {
	rec := &rp.tr.recs[0] // the layer pass runs alone
	if len(keys) == 0 {
		return
	}
	fid := rec.begin(tid, parent, lFastScore)
	for _, k := range keys {
		rp.sink += rp.fast.ScoresForKey(k)[0]
	}
	rec.end(fid, len(keys))

	id := rec.begin(tid, fid, lTokenize)
	for _, k := range keys {
		host, path := urlx.SplitNormalized(k)
		urlx.VisitTokens(host, rp.count)
		urlx.VisitTokens(path, rp.count)
	}
	rec.end(id, len(keys))

	rp.toks = rp.toks[:0]
	for _, k := range keys {
		host, path := urlx.SplitNormalized(k)
		rp.toks = urlx.AppendTokens(urlx.AppendTokens(rp.toks, host), path)
	}
	lookup := func() {
		for _, t := range rp.toks {
			if tok, ok := rp.table.Lookup(t); ok {
				rp.sink += float64(tok)
			}
		}
	}
	// The bench's table is a copy only this loop uses, so one untimed
	// pass first warms it the way every request keeps a server's warm.
	lookup()
	id = rec.begin(tid, fid, lLookup)
	lookup()
	rec.end(id, len(rp.toks))
}

func normalizeAll(dst, urls []string) []string {
	for _, u := range urls {
		dst = append(dst, urlx.Normalize(u))
	}
	return dst
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(spanJSON{
			Trace: s.trace, ID: s.id, Parent: s.parent, Name: layerNames[s.layer],
			Calls: s.calls, StartNs: s.start, EndNs: s.end,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanJSON is one line of the spans file.
type spanJSON struct {
	Trace   int32  `json:"trace"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	Calls   int32  `json:"calls"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// printLayers writes the per-layer table: calls, total and self time.
func printLayers(out io.Writer, sum [numLayers]layerTotals) {
	fmt.Fprintf(out, "  %-20s %10s %10s %10s %10s\n", "layer", "calls", "total_ms", "self_ms", "ns/call")
	for l, t := range sum {
		if t.calls == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-20s %10d %10.1f %10.1f %10.1f\n", layerNames[l], t.calls,
			float64(t.total)/1e6, float64(t.total-t.children)/1e6, float64(t.total)/float64(t.calls))
	}
}

// openTime is the median time registry.LoadFile takes to open one tier
// file, over nine opens of each.
func openTime(fx *fixture) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < 9; i++ {
		reg := registry.New(registry.Options{})
		for _, p := range []string{fx.fastPath, fx.slowPath} {
			t0 := time.Now()
			_, err := reg.LoadFile(p, p)
			ds = append(ds, time.Since(t0))
			if err != nil {
				reg.Close()
				return 0, err
			}
		}
		reg.Close()
	}
	slices.Sort(ds)
	return quantile(ds, 0.5), nil
}
