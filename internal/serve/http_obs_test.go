package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// getText fetches url and returns the response body as a string plus
// the status code and Content-Type.
func getText(t *testing.T, url string) (string, int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode, resp.Header.Get("Content-Type")
}

// TestHTTPMetricsExposition drives traffic and pins what GET /metrics
// serves: Prometheus text content type, per-route HTTP families, and
// per-model families with the expected counts.
func TestHTTPMetricsExposition(t *testing.T) {
	srv, _ := newTestServer(t, Options{CacheCapacity: 64})

	u := "http://www.einzigartig-seite.de/pfad"
	postJSON(t, srv.URL+"/v1/classify", map[string]string{"url": u}).Body.Close()
	postJSON(t, srv.URL+"/v1/classify", map[string]string{"url": u}).Body.Close()
	http.Get(srv.URL + "/healthz")
	http.Get(srv.URL + "/v1/models")

	body, code, ctype := getText(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", code)
	}
	if want := "text/plain; version=0.0.4; charset=utf-8"; ctype != want {
		t.Errorf("Content-Type = %q, want %q", ctype, want)
	}
	for _, want := range []string{
		"# TYPE urllangid_http_requests_total counter",
		`urllangid_http_requests_total{path="/v1/classify",code="200"} 2`,
		`urllangid_http_requests_total{path="/healthz",code="200"} 1`,
		`urllangid_http_requests_total{path="/v1/models",code="200"} 1`,
		"# TYPE urllangid_http_request_seconds histogram",
		`urllangid_http_request_seconds_count{path="/v1/classify"} 2`,
		"# TYPE urllangid_http_in_flight gauge",
		"# TYPE urllangid_uptime_seconds gauge",
		"# TYPE urllangid_model_info gauge",
		`urllangid_model_info{model="default",label="NB/word",mode="linear"} 1`,
		`urllangid_model_requests_total{model="default"} 2`,
		`urllangid_model_urls_total{model="default"} 2`,
		`urllangid_model_cache_hits_total{model="default"} 1`,
		`urllangid_model_cache_misses_total{model="default"} 1`,
		`urllangid_model_cache_entries{model="default"} 1`,
		`urllangid_model_in_flight{model="default"} 0`,
		"# TYPE urllangid_model_latency_seconds histogram",
		// One sample per engine call: two single-URL requests, the
		// second a cache hit, are two.
		`urllangid_model_latency_seconds_count{model="default"} 2`,
		`urllangid_model_ready{model="default"} 1`,
		`urllangid_model_swaps_total{model="default"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The scrape endpoint instruments itself: its counter lands after
	// the response is written, so the *next* scrape shows it.
	body, _, _ = getText(t, srv.URL+"/metrics")
	if want := `urllangid_http_requests_total{path="/metrics",code="200"} 1`; !strings.Contains(body, want) {
		t.Errorf("second scrape missing %q", want)
	}
}

// TestHTTPMetricsCoverEveryRoute pins that the route wrapper catches
// the whole route table, error responses included: every registered
// pattern must surface in per-path metrics after one request.
func TestHTTPMetricsCoverEveryRoute(t *testing.T) {
	srv, _ := newTestServer(t, Options{CacheCapacity: 64})

	postJSON(t, srv.URL+"/v1/classify", map[string]string{"url": "http://a.example/x"}).Body.Close()
	resp, err := http.Post(srv.URL+"/v1/stream", "application/x-ndjson",
		strings.NewReader("http://b.example/y\n"))
	if err != nil {
		t.Fatal(err)
	}
	// Responses that reach the client before their handler returns (the
	// flushed stream, the large /metrics page) are read to EOF: the
	// route counter is bumped when the handler returns, and only the
	// response's end is sent after that.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	http.Get(srv.URL + "/v1/models")
	http.Get(srv.URL + "/v1/models/default/stats")
	// Static models have no backing file: reload answers 409, and the
	// error must be counted under its real status code.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/models/default/reload", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	http.Get(srv.URL + "/healthz")
	http.Get(srv.URL + "/readyz")
	http.Get(srv.URL + "/stats")
	getText(t, srv.URL+"/metrics")

	body, _, _ := getText(t, srv.URL+"/metrics")
	for _, want := range []string{
		`{path="/v1/classify",code="200"}`,
		`{path="/v1/stream",code="200"}`,
		`{path="/v1/models",code="200"}`,
		`{path="/v1/models/{name}/stats",code="200"}`,
		`{path="/v1/models/{name}/reload",code="409"}`,
		`{path="/healthz",code="200"}`,
		`{path="/readyz",code="200"}`,
		`{path="/stats",code="200"}`,
		`{path="/metrics",code="200"}`,
	} {
		if !strings.Contains(body, "urllangid_http_requests_total"+want+" 1") {
			t.Errorf("/metrics missing request counter %s", want)
		}
	}
}

// httpRoutes is the route table NewHandler registers, as the path
// label spells each pattern.
var httpRoutes = []string{
	"/v1/classify", "/v1/stream", "/v1/models", "/v1/models/{name}/stats",
	"/v1/models/{name}/reload", "/healthz", "/readyz", "/stats", "/metrics",
}

// httpSeries scrapes /metrics and returns the series of the HTTP
// families: each sample line's name and labels, with a histogram
// bucket's le label dropped, since which buckets fill is up to timing.
// It fails the test on a path label outside the route table or a code
// label that is not a three-digit status.
func httpSeries(t *testing.T, url string) []string {
	t.Helper()
	body, _, _ := getText(t, url+"/metrics")
	label := regexp.MustCompile(`(\w+)="([^"]*)"`)
	le := regexp.MustCompile(`,?le="[^"]*"`)
	code := regexp.MustCompile(`^[1-9][0-9][0-9]$`)
	var series []string
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "urllangid_http_") {
			continue
		}
		s := line[:strings.LastIndexByte(line, ' ')]
		for _, m := range label.FindAllStringSubmatch(s, -1) {
			switch m[1] {
			case "path":
				if !slices.Contains(httpRoutes, m[2]) {
					t.Errorf("path label %q is not a route pattern: %s", m[2], line)
				}
			case "code":
				if !code.MatchString(m[2]) {
					t.Errorf("code label %q is not a status code: %s", m[2], line)
				}
			}
		}
		series = append(series, le.ReplaceAllString(s, ""))
	}
	slices.Sort(series)
	return slices.Compact(series)
}

// TestHTTPMetricsCardinalityBounded sends two rounds of requests whose
// request data differs: unknown model names in the query and in the
// path, an over-cap batch, a bad body, random query keys and headers,
// and a path no route serves. The HTTP families must carry the same
// series after each round, because their label values come from the
// route table and status codes, never from what a client sends.
func TestHTTPMetricsCardinalityBounded(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{CacheCapacity: 64})
	srv := httptest.NewServer(NewHandler(Static(e, ModelInfo{Model: snap.Describe()}),
		HandlerOptions{MaxBatch: 2}))
	defer srv.Close()

	round := func() {
		k := fmt.Sprintf("k%x", rand.Uint64())
		for _, c := range []struct {
			method, path, body string
			want               int
		}{
			{"POST", "/v1/classify?model=" + k, `{"url":"http://a.example/` + k + `"}`, http.StatusNotFound},
			{"POST", "/v1/stream?model=" + k, "http://a.example/" + k + "\n", http.StatusNotFound},
			{"GET", "/stats?model=" + k, "", http.StatusNotFound},
			{"GET", "/v1/models/" + k + "/stats", "", http.StatusNotFound},
			{"POST", "/v1/models/" + k + "/reload", "", http.StatusNotFound},
			{"POST", "/v1/classify", `{"urls":["http://a.example/1","http://b.example/2","http://c.example/` + k + `"]}`, http.StatusRequestEntityTooLarge},
			{"POST", "/v1/classify?" + k + "=" + k, `{"` + k, http.StatusBadRequest},
			{"GET", "/healthz?" + k + "=" + k, "", http.StatusOK},
			{"GET", "/" + k, "", http.StatusNotFound},
		} {
			req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-"+k, k)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
			}
		}
	}
	round()
	getText(t, srv.URL+"/metrics") // count /metrics itself in both scrapes
	first := httpSeries(t, srv.URL)
	round()
	second := httpSeries(t, srv.URL)
	if !slices.Equal(first, second) {
		t.Errorf("HTTP series changed with request data:\n--- first ---\n%s\n--- second ---\n%s",
			strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
}

// nopWriter is a reusable ResponseWriter that discards the response.
type nopWriter struct{ header http.Header }

func (w *nopWriter) Header() http.Header         { return w.header }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopWriter) WriteHeader(int)             {}

// TestRouteWrapperAllocs pins what the route wrapper costs a request
// on top of its handler: the statusWriter, and no allocation to count
// the request.
func TestRouteWrapperAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	h := &handler{}
	mux := http.NewServeMux()
	h.route(mux, "GET /noop", func(http.ResponseWriter, *http.Request) {})
	r := httptest.NewRequest(http.MethodGet, "/noop", nil)
	wrapped, _ := mux.Handler(r)
	w := &nopWriter{header: make(http.Header)}
	if avg := testing.AllocsPerRun(1000, func() { wrapped.ServeHTTP(w, r) }); avg > 1 {
		t.Errorf("route wrapper allocates %.1f per request, want at most 1 (its statusWriter)", avg)
	}
	if n := h.routes[0].codes[http.StatusOK].Value(); n < 1000 {
		t.Errorf("route counted %d requests with code 200, want at least 1000", n)
	}
}

// slotStateResolver wraps a Resolver with a canned SlotStates answer,
// standing in for a registry mid-install.
type slotStateResolver struct {
	Resolver
	states []SlotState
}

func (s *slotStateResolver) SlotStates() []SlotState { return s.states }

// TestHTTPReadyz pins the readiness status codes: 200 when every slot
// serves, 503 while any slot is mid-install, 503 with no models.
func TestHTTPReadyz(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{})
	static := Static(e, ModelInfo{Model: snap.Describe()})

	cases := []struct {
		name     string
		resolver Resolver
		want     int
	}{
		{"static ready", static, http.StatusOK},
		{"all slots ready", &slotStateResolver{static, []SlotState{
			{Model: ModelInfo{Name: "default"}, Ready: true},
			{Model: ModelInfo{Name: "canary"}, Ready: true},
		}}, http.StatusOK},
		{"slot mid-install", &slotStateResolver{static, []SlotState{
			{Model: ModelInfo{Name: "default"}, Ready: true},
			{Model: ModelInfo{Name: "canary"}, Ready: false},
		}}, http.StatusServiceUnavailable},
		{"no slots", &slotStateResolver{static, nil}, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(NewHandler(tc.resolver, HandlerOptions{}))
			defer srv.Close()
			_, code, _ := getText(t, srv.URL+"/readyz")
			if code != tc.want {
				t.Errorf("GET /readyz = %d, want %d", code, tc.want)
			}
		})
	}
}

// TestHTTPSlowLog enables tracing with a zero-distance threshold: every
// request is "slow", so the first one must log a line carrying the
// per-stage breakdown and the slow counter must move.
func TestHTTPSlowLog(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{CacheCapacity: 64})
	var buf bytes.Buffer
	srv := httptest.NewServer(NewHandler(
		Static(e, ModelInfo{Model: snap.Describe()}),
		HandlerOptions{SlowLog: time.Nanosecond, SlowLogOutput: &buf},
	))
	defer srv.Close()

	postJSON(t, srv.URL+"/v1/classify", map[string]string{"url": "http://slow.example/x"}).Body.Close()

	line := buf.String()
	if !strings.Contains(line, "slow request: POST /v1/classify") {
		t.Errorf("slow log = %q, want a POST /v1/classify line", line)
	}
	for _, stage := range []string{"engine=", "respond="} {
		if !strings.Contains(line, stage) {
			t.Errorf("slow log %q missing stage %s", line, stage)
		}
	}

	body, _, _ := getText(t, srv.URL+"/metrics")
	if want := `urllangid_http_slow_requests_total{path="/v1/classify"} 1`; !strings.Contains(body, want) {
		t.Errorf("/metrics missing %q", want)
	}

	// Sampling: a second slow request inside the same second counts but
	// does not log again.
	buf.Reset()
	postJSON(t, srv.URL+"/v1/classify", map[string]string{"url": "http://slow.example/y"}).Body.Close()
	if buf.Len() != 0 {
		t.Errorf("second slow request within 1s logged %q, want sampled out", buf.String())
	}
	body, _, _ = getText(t, srv.URL+"/metrics")
	if want := `urllangid_http_slow_requests_total{path="/v1/classify"} 2`; !strings.Contains(body, want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestHTTPStatsInFlightShape pins the new snapshot keys the JSON
// endpoints grew with the obs rewrite.
func TestHTTPStatsInFlightShape(t *testing.T) {
	srv, _ := newTestServer(t, Options{CacheCapacity: 64})
	postJSON(t, srv.URL+"/v1/classify", map[string]string{"url": "http://a.example/x"}).Body.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody[map[string]any](t, resp)
	for _, key := range []string{"in_flight"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/stats missing %q key: %v", key, stats)
		}
	}
	if stats["in_flight"] != float64(0) {
		t.Errorf("idle in_flight = %v, want 0", stats["in_flight"])
	}
}
