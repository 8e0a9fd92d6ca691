package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"urllangid/internal/cascade"
	"urllangid/internal/langid"
	"urllangid/internal/obs"
)

// DefaultMaxBatch bounds the URLs accepted in one /v1/classify request.
const DefaultMaxBatch = 10000

// streamChunk is the micro-batch size of the NDJSON stream: big enough
// to fan out across workers, small enough to keep results flowing while
// the client is still uploading its frontier. A partial chunk is also
// emitted before each read of the request body (see flushingReader).
const streamChunk = 512

// HandlerOptions tunes the HTTP front end.
type HandlerOptions struct {
	// MaxBatch overrides DefaultMaxBatch.
	MaxBatch int
	// SlowLog enables per-stage request tracing and sampled
	// slow-request logging: requests slower than this threshold are
	// counted per route and logged — at most about once per second —
	// with their engine/respond breakdown. engine is the time in the
	// engine's batch calls, respond the time encoding and writing
	// their results; a stream sums both over its chunks. 0 disables
	// tracing entirely (no extra clock reads per request).
	SlowLog time.Duration
	// SlowLogOutput receives slow-request log lines (default
	// os.Stderr).
	SlowLogOutput io.Writer
}

// NewHandler builds the HTTP API over a Resolver. Every request
// resolves its engine live — nothing about the serving model is frozen
// at construction, so a registry swap or reload is visible to the very
// next request:
//
//	POST /v1/classify              {"url": "..."} or {"urls": [...]};
//	                               ?model=name routes off the default
//	POST /v1/stream                NDJSON in (objects, strings or bare
//	                               lines), NDJSON out, input order;
//	                               ?model=name routes off the default
//	GET  /v1/models                live model list: name, label, mode,
//	                               version, digest, loaded_at
//	GET  /v1/models/{name}/stats   one model's serving metrics
//	POST /v1/models/{name}/reload  re-open the model's backing file and
//	                               swap it in (no-op if unchanged)
//	GET  /healthz                  liveness + default model identity
//	GET  /readyz                   readiness: 200 when every model slot
//	                               can serve, 503 mid-install or empty
//	GET  /stats                    default model's serving metrics
//	GET  /metrics                  Prometheus text exposition: HTTP tier
//	                               plus per-model families
func NewHandler(models Resolver, opts HandlerOptions) http.Handler {
	h := &handler{
		models:   models,
		maxBatch: opts.MaxBatch,
		start:    time.Now(),
		metrics:  obs.NewRegistry(),
		slowLog:  opts.SlowLog,
	}
	if h.maxBatch <= 0 {
		h.maxBatch = DefaultMaxBatch
	}
	out := opts.SlowLogOutput
	if out == nil {
		out = os.Stderr
	}
	h.slowLogger = log.New(out, "", log.LstdFlags|log.Lmicroseconds)
	h.metrics.GaugeFunc("urllangid_uptime_seconds",
		"Seconds since the HTTP handler started serving.",
		func() float64 { return time.Since(h.start).Seconds() })
	h.httpInFlight = h.metrics.Gauge("urllangid_http_in_flight",
		"HTTP requests currently in the handler, across all routes.")
	mux := http.NewServeMux()
	h.route(mux, "POST /v1/classify", h.classify)
	h.route(mux, "POST /v1/stream", h.stream)
	h.route(mux, "GET /v1/models", h.listModels)
	h.route(mux, "GET /v1/models/{name}/stats", h.modelStats)
	h.route(mux, "POST /v1/models/{name}/reload", h.reload)
	h.route(mux, "GET /healthz", h.healthz)
	h.route(mux, "GET /readyz", h.readyz)
	h.route(mux, "GET /stats", h.stats)
	h.route(mux, "GET /metrics", h.metricsPage)
	return mux
}

type handler struct {
	models   Resolver
	maxBatch int
	start    time.Time

	metrics      *obs.Registry
	httpInFlight *obs.Gauge
	slowLog      time.Duration
	slowLogger   *log.Logger
	lastSlow     atomic.Int64 // unix nanos of the last slow-log line
}

// route registers one endpoint through the instrumentation wrapper.
// Every endpoint — present and future — gets its per-route request
// counter, duration histogram, in-flight tracking and slow-log coverage
// by construction here, not by per-handler discipline; a handler added
// without route would not be reachable at all.
func (h *handler) route(mux *http.ServeMux, pattern string, fn http.HandlerFunc) {
	path := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		path = pattern[i+1:]
	}
	// The path label is the registered route pattern, never the request
	// URL: cardinality stays bounded by the route table no matter what
	// clients send.
	pathLabel := obs.Label{Key: "path", Value: path}
	durations := h.metrics.Histogram("urllangid_http_request_seconds",
		"HTTP request wall time by route.", 1e-9, pathLabel)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.httpInFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		var tr *obs.Trace
		if h.slowLog > 0 {
			tr = new(obs.Trace)
			r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
		}
		fn(sw, r)
		elapsed := time.Since(start)
		h.httpInFlight.Add(-1)
		durations.Observe(int64(elapsed))
		h.metrics.Counter("urllangid_http_requests_total",
			"HTTP requests served, by route and status code.",
			pathLabel, obs.Label{Key: "code", Value: strconv.Itoa(sw.status())}).Inc()
		if h.slowLog > 0 && elapsed >= h.slowLog {
			h.slowRequest(r, path, sw.status(), elapsed, tr)
		}
	})
}

// slowRequest counts and (sampled) logs one request over the slow-log
// threshold, with its per-stage breakdown.
func (h *handler) slowRequest(r *http.Request, path string, code int, elapsed time.Duration, tr *obs.Trace) {
	h.metrics.Counter("urllangid_http_slow_requests_total",
		"Requests slower than the slow-log threshold, by route.",
		obs.Label{Key: "path", Value: path}).Inc()
	// Sampled to about one line per second: a latency storm reports
	// itself without the logging becoming its own source of load.
	now := time.Now().UnixNano()
	last := h.lastSlow.Load()
	if now-last < int64(time.Second) || !h.lastSlow.CompareAndSwap(last, now) {
		return
	}
	h.slowLogger.Printf("slow request: %s %s code=%d total=%s stages[%s]",
		r.Method, path, code, elapsed, tr)
}

// statusWriter captures the response status code for the per-route
// counter. Unwrap keeps http.ResponseController features — the stream
// endpoint's full-duplex and flush — working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// resolve pins the engine for one request, mapping resolver failures to
// HTTP statuses. The caller must call release exactly once when ok.
func (h *handler) resolve(w http.ResponseWriter, r *http.Request) (e *Engine, info ModelInfo, release func(), ok bool) {
	e, info, release, err := h.models.Resolve(r.URL.Query().Get("model"))
	if err != nil {
		httpError(w, errStatus(err), "%v", err)
		return nil, ModelInfo{}, nil, false
	}
	return e, info, release, true
}

// errStatus maps resolver errors onto HTTP statuses: unknown names are
// the client's mistake, an empty registry is the server's unreadiness,
// a reload against a file-less model is a conflict with how it was
// installed.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrNoModels):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotReloadable):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// classifyRequest accepts both the single and the batch shape.
type classifyRequest struct {
	URL  string   `json:"url"`
	URLs []string `json:"urls"`
}

// resultJSON is the wire form of one Result.
type resultJSON struct {
	URL       string             `json:"url"`
	Languages []string           `json:"languages"`
	Scores    map[string]float64 `json:"scores"`
	Cached    bool               `json:"cached,omitempty"`
}

type classifyResponse struct {
	Model   string       `json:"model"`
	Name    string       `json:"name"`
	Version int64        `json:"version"`
	Results []resultJSON `json:"results"`
}

func toJSON(r Result) resultJSON {
	out := resultJSON{
		URL:       r.URL,
		Languages: []string{},
		Scores:    make(map[string]float64, langid.NumLanguages),
		Cached:    r.Cached,
	}
	for li, s := range r.Scores() {
		l := langid.Language(li)
		out.Scores[l.Code()] = s
		if r.Is(l) {
			out.Languages = append(out.Languages, l.Code())
		}
	}
	return out
}

// maxURLBytes is the per-URL byte budget behind the /v1/classify body
// cap. Real URLs rarely exceed 2KB; 8KB leaves room for JSON overhead.
const maxURLBytes = 8192

// classify reads and checks the whole body before it resolves the
// model: a slow upload then pins no model version, so a swap during it
// never waits on the client to release the old version's file mapping.
func (h *handler) classify(w http.ResponseWriter, r *http.Request) {
	// Cap the body before decoding: the batch limit would otherwise only
	// be enforced after an arbitrarily large []string had already been
	// materialised. /v1/stream is the unbounded-input endpoint, and it
	// holds at most one micro-batch in memory.
	body := http.MaxBytesReader(w, r.Body, int64(h.maxBatch)*maxURLBytes+4096)
	req, err := decodeClassify(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"body exceeds %d bytes; use /v1/stream for bulk frontiers", tooLarge.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	urls := req.URLs
	if req.URL != "" {
		urls = append([]string{req.URL}, urls...)
	}
	if len(urls) == 0 {
		httpError(w, http.StatusBadRequest, `provide "url" or a non-empty "urls" array`)
		return
	}
	if len(urls) > h.maxBatch {
		httpError(w, http.StatusRequestEntityTooLarge,
			"batch of %d exceeds limit %d; use /v1/stream for bulk frontiers", len(urls), h.maxBatch)
		return
	}
	engine, info, release, ok := h.resolve(w, r)
	if !ok {
		return
	}
	defer release()
	st := engine.Stats()
	st.RecordRequest()
	st.IncInFlight()
	defer st.DecInFlight()
	tr := obs.TraceFrom(r.Context())
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	results := engine.ClassifyBatch(urls)
	if tr != nil {
		t1 := time.Now()
		tr.Add(obs.StageEngine, t1.Sub(t0))
		t0 = t1
	}
	// The response is encoded by hand into a pooled buffer —
	// byte-identical to writeJSON of a classifyResponse, without the
	// per-result map and slice allocations encoding/json would need.
	eb := getEncBuf()
	b := eb.b[:0]
	b = append(b, `{"model":`...)
	b = appendJSONString(b, info.Model)
	b = append(b, `,"name":`...)
	b = appendJSONString(b, info.Name)
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, info.Version, 10)
	b = append(b, `,"results":[`...)
	for i, res := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendResult(b, res)
	}
	b = append(b, "]}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	eb.b = b
	putEncBuf(eb)
	if tr != nil {
		tr.Add(obs.StageRespond, time.Since(t0))
	}
}

// stream consumes NDJSON: each non-empty line is either a JSON object
// with a "url" field, a JSON string, or a bare URL. Responses stream
// back in input order, one JSON object per line, flushed per chunk so a
// crawler can pipe its frontier through without buffering it. The
// stream pins its engine for its whole duration: a model swapped out
// mid-stream keeps answering this stream's lines, and its file is
// unmapped only when the stream (and any other holder) lets go —
// in-flight work drains, it is never cut off.
//
// A stream that ends early — a bad or over-long line — leaves the rest
// of its upload unread. In full duplex, net/http drains such a body only
// after the handler returns, and that drain's EOF starts a connection
// read which races the read of the next request: a recovered "invalid
// concurrent Body.Read call" panic and a dropped connection. So the
// handler drains the body itself (Close reads up to 256 KiB of it, as
// net/http would), after streamLines has returned: by then the results
// and the in-band error line are on the wire, and the engine pin and
// the in-flight gauge are released, so neither the client nor a reload
// waits on the drain. The response ends once the drain does: when the
// client ends its upload, or after 256 KiB more of it.
func (h *handler) stream(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	h.streamLines(w, r)
}

// streamLines answers a /v1/stream request; see stream.
func (h *handler) streamLines(w http.ResponseWriter, r *http.Request) {
	engine, _, release, ok := h.resolve(w, r)
	if !ok {
		return
	}
	defer release()
	st := engine.Stats()
	st.RecordRequest()
	st.IncInFlight()
	defer st.DecInFlight()
	tr := obs.TraceFrom(r.Context())
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Results stream back while the frontier is still uploading. Without
	// full duplex the HTTP/1.x server aborts the request body at the
	// first response write, silently truncating large frontiers; HTTP/2
	// is duplex natively and returns an ignorable error here.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	enc := json.NewEncoder(w)

	chunk := make([]string, 0, streamChunk)
	emit := func() bool {
		if len(chunk) == 0 {
			return true
		}
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		results := engine.ClassifyBatch(chunk)
		if tr != nil {
			t1 := time.Now()
			tr.Add(obs.StageEngine, t1.Sub(t0))
			t0 = t1
		}
		// One pooled buffer per chunk, one Write per chunk: the NDJSON
		// lines are encoded by hand (byte-identical to enc.Encode of
		// each toJSON form) and flushed together.
		eb := getEncBuf()
		b := eb.b[:0]
		for _, res := range results {
			b = appendResult(b, res)
			b = append(b, '\n')
		}
		_, werr := w.Write(b)
		eb.b = b
		putEncBuf(eb)
		if werr != nil {
			return false // client went away
		}
		rc.Flush()
		if tr != nil {
			tr.Add(obs.StageRespond, time.Since(t0))
		}
		chunk = chunk[:0]
		return true
	}

	// fail ends the stream with an in-band error line. Pending results
	// go first so output order still matches input order, and the line
	// is flushed at once: the client may still be uploading.
	fail := func(format string, args ...any) {
		if emit() {
			enc.Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
			rc.Flush()
		}
	}

	// Partial chunks go out before each body read (see flushingReader).
	sc := bufio.NewScanner(&flushingReader{body: r.Body, emit: emit})
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		url, err := streamLineURL(line)
		if err != nil {
			fail("line %d: %v", lineNo, err)
			return
		}
		chunk = append(chunk, url)
		if len(chunk) >= streamChunk && !emit() {
			return
		}
	}
	if err := sc.Err(); err != nil {
		if !errors.Is(err, errResultsGone) {
			fail("reading stream: %v", err)
		}
		return
	}
	emit()
}

// listModels reports every live model version plus which name is the
// default route — the Resolver contract orders the default first.
func (h *handler) listModels(w http.ResponseWriter, _ *http.Request) {
	list := h.models.Models()
	def := ""
	if len(list) > 0 {
		def = list[0].Name
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"models":  list,
		"default": def,
	})
}

// reload re-opens the named model's backing file and swaps the result
// in. An unchanged file (same content digest) reports changed=false and
// touches nothing.
func (h *handler) reload(w http.ResponseWriter, r *http.Request) {
	info, changed, err := h.models.Reload(r.PathValue("name"))
	if err != nil {
		httpError(w, errStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"changed": changed,
		"model":   info,
	})
}

// healthz reports liveness plus the default model's identity — read
// from the resolver per request, so the label, mode and version are
// correct immediately after a swap.
func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	_, info, release, err := h.models.Resolve("")
	if err != nil {
		writeJSON(w, errStatus(err), map[string]any{
			"status": "unavailable",
			"error":  err.Error(),
		})
		return
	}
	release()
	resp := map[string]any{
		"status":         "ok",
		"name":           info.Name,
		"model":          info.Model,
		"version":        info.Version,
		"uptime_seconds": time.Since(h.start).Seconds(),
	}
	// Matches /stats' omitempty: the key appears only when the server
	// actually runs a compiled snapshot.
	if info.Mode != "" {
		resp["compiled_mode"] = info.Mode
	}
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse wraps the metric snapshot with the live identity of
// what is being served — name, label, mode, version, digest — so an
// operator reading /stats never has to guess which scorer (or which
// *version* of it) is behind the numbers.
//
// UptimeSeconds here is the HTTP server's uptime and deliberately
// shadows the embedded engine snapshot's same-named field: the engine
// is replaced on every swap, so its anchor would reset with each
// reload, while "how long has this server been up" must not.
type statsResponse struct {
	Name    string `json:"name"`
	Model   string `json:"model"`
	Mode    string `json:"compiled_mode,omitempty"`
	Version int64  `json:"version"`
	Digest  string `json:"digest,omitempty"`
	// UptimeSeconds is time since the handler started serving.
	UptimeSeconds float64 `json:"uptime_seconds"`
	Snapshot
	// Cascade carries tier routing stats when the model is a cascade.
	Cascade *cascade.TierSnapshot `json:"cascade,omitempty"`
}

// tierStatser is the optional contract a cascade predictor meets; the
// stats and metrics surfaces type-assert for it rather than importing
// registry wiring.
type tierStatser interface {
	TierStats() *cascade.Stats
}

func (h *handler) statsFor(e *Engine, info ModelInfo) statsResponse {
	resp := statsResponse{
		Name:          info.Name,
		Model:         info.Model,
		Mode:          info.Mode,
		Version:       info.Version,
		Digest:        info.Digest,
		UptimeSeconds: time.Since(h.start).Seconds(),
		Snapshot:      e.StatsSnapshot(),
	}
	if ts, ok := e.Predictor().(tierStatser); ok {
		snap := ts.TierStats().Snapshot()
		resp.Cascade = &snap
	}
	return resp
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	engine, info, release, ok := h.resolve(w, r)
	if !ok {
		return
	}
	defer release()
	writeJSON(w, http.StatusOK, h.statsFor(engine, info))
}

func (h *handler) modelStats(w http.ResponseWriter, r *http.Request) {
	engine, info, release, err := h.models.Resolve(r.PathValue("name"))
	if err != nil {
		httpError(w, errStatus(err), "%v", err)
		return
	}
	defer release()
	writeJSON(w, http.StatusOK, h.statsFor(engine, info))
}

// readyz is the readiness probe, distinct from /healthz liveness: a
// live process may still be unable to serve (no models loaded, a slot
// mid-install). It reports 503 until every slot can answer, which is
// what a load balancer should gate traffic on; /healthz answering 200
// through a deploy is what keeps the orchestrator from killing the
// process while it warms.
func (h *handler) readyz(w http.ResponseWriter, _ *http.Request) {
	states := h.models.SlotStates()
	ready := len(states) > 0
	for _, st := range states {
		if !st.Ready {
			ready = false
		}
	}
	status, code := "ready", http.StatusOK
	if !ready {
		status, code = "unavailable", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": status, "slots": states})
}

// metricsPage serves Prometheus text exposition: the process-lifetime
// HTTP families first, then the per-model families read live from
// whatever engines the resolver serves right now. Per-model values live
// inside swappable engines, so the scrape pins each model for the read
// instead of registering handles a swap would strand.
func (h *handler) metricsPage(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	x := obs.NewExpoWriter(w)
	h.metrics.Expose(x)
	h.exposeModels(x)
	x.Flush()
}

func (h *handler) exposeModels(x *obs.ExpoWriter) {
	type modelScrape struct {
		labels []obs.Label
		engine *Engine
		stats  *Stats
		info   ModelInfo
	}
	infos := h.models.Models()
	scr := make([]modelScrape, 0, len(infos))
	for _, mi := range infos {
		e, info, release, err := h.models.Resolve(mi.Name)
		if err != nil {
			continue // slot retired between list and pin: skip it
		}
		defer release()
		scr = append(scr, modelScrape{
			labels: []obs.Label{{Key: "model", Value: info.Name}},
			engine: e,
			stats:  e.Stats(),
			info:   info,
		})
	}

	x.Family("urllangid_model_info",
		"Identity of each live model version; the value is the version number.",
		obs.KindGauge)
	for _, m := range scr {
		x.IntSample("urllangid_model_info", []obs.Label{
			{Key: "model", Value: m.info.Name},
			{Key: "label", Value: m.info.Model},
			{Key: "mode", Value: m.info.Mode},
		}, m.info.Version)
	}

	counter := func(name, help string, v func(*Stats) int64) {
		x.Family(name, help, obs.KindCounter)
		for _, m := range scr {
			x.IntSample(name, m.labels, v(m.stats))
		}
	}
	counter("urllangid_model_requests_total",
		"Serving requests (classify and stream) routed to the model.", (*Stats).Requests)
	counter("urllangid_model_urls_total",
		"URLs classified, cached or not.", (*Stats).URLs)
	counter("urllangid_model_cache_hits_total",
		"Result-cache hits.", (*Stats).CacheHits)
	counter("urllangid_model_cache_misses_total",
		"Result-cache misses.", (*Stats).CacheMisses)

	x.Family("urllangid_model_in_flight",
		"Serving requests currently holding the model.", obs.KindGauge)
	for _, m := range scr {
		x.IntSample("urllangid_model_in_flight", m.labels, m.stats.InFlight())
	}
	x.Family("urllangid_model_cache_entries",
		"Live result-cache entries.", obs.KindGauge)
	for _, m := range scr {
		x.IntSample("urllangid_model_cache_entries", m.labels, int64(m.engine.CacheEntries()))
	}
	x.Family("urllangid_model_latency_seconds",
		"Wall time of one engine call (a request's batch or a stream chunk), cache hits included.", obs.KindHistogram)
	for _, m := range scr {
		if hist := m.stats.Latency(); hist != nil {
			x.HistogramSample("urllangid_model_latency_seconds", m.labels, hist)
		}
	}

	// Cascade tier families: emitted only for models whose predictor
	// carries tier stats. Empty families are valid exposition, so a
	// registry without cascades just scrapes two headers.
	x.Family("urllangid_model_fast_served_total",
		"Cascade classifications answered by the fast tier alone.", obs.KindCounter)
	for _, m := range scr {
		if ts, ok := m.engine.Predictor().(tierStatser); ok {
			x.IntSample("urllangid_model_fast_served_total", m.labels, ts.TierStats().FastServed())
		}
	}
	x.Family("urllangid_model_escalations_total",
		"Cascade classifications escalated to the slow tier.", obs.KindCounter)
	for _, m := range scr {
		if ts, ok := m.engine.Predictor().(tierStatser); ok {
			x.IntSample("urllangid_model_escalations_total", m.labels, ts.TierStats().Escalations())
		}
	}

	states := h.models.SlotStates()
	x.Family("urllangid_model_ready",
		"1 when the slot can serve, 0 mid-install or retired.", obs.KindGauge)
	for _, st := range states {
		v := int64(0)
		if st.Ready {
			v = 1
		}
		x.IntSample("urllangid_model_ready",
			[]obs.Label{{Key: "model", Value: st.Model.Name}}, v)
	}
	x.Family("urllangid_model_swaps_total",
		"Model versions ever installed into the slot.", obs.KindCounter)
	for _, st := range states {
		x.IntSample("urllangid_model_swaps_total",
			[]obs.Label{{Key: "model", Value: st.Model.Name}}, st.Swaps)
	}
	x.Family("urllangid_model_pins",
		"Requests currently pinning the slot's live version.", obs.KindGauge)
	for _, st := range states {
		x.IntSample("urllangid_model_pins",
			[]obs.Label{{Key: "model", Value: st.Model.Name}}, st.Pins)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
