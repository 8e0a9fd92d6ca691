package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Engine) {
	t.Helper()
	snap, _ := snapshot(t)
	e := New(snap, opts)
	res := Static(e, ModelInfo{Model: snap.Describe(), Mode: snap.Mode()})
	srv := httptest.NewServer(NewHandler(res, HandlerOptions{}))
	t.Cleanup(srv.Close)
	return srv, e
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPClassifySingle(t *testing.T) {
	srv, _ := newTestServer(t, Options{CacheCapacity: 128})
	resp := postJSON(t, srv.URL+"/v1/classify", map[string]string{
		"url": "http://www.nachrichten-wetter.de/zeitung",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decodeBody[classifyResponse](t, resp)
	if body.Model != "NB/word" {
		t.Errorf("model = %q", body.Model)
	}
	if len(body.Results) != 1 {
		t.Fatalf("got %d results", len(body.Results))
	}
	r := body.Results[0]
	if len(r.Scores) != 5 {
		t.Errorf("scores = %v", r.Scores)
	}
	for _, code := range r.Languages {
		if r.Scores[code] < 0 {
			t.Errorf("claimed language %s has negative score", code)
		}
	}
}

func TestHTTPClassifyBatchAndCacheFlag(t *testing.T) {
	srv, _ := newTestServer(t, Options{CacheCapacity: 128})
	urls := []string{
		"http://www.recherche-produits.fr/annonce",
		"http://www.noticias-tienda.es/precios",
		"http://www.recherche-produits.fr/annonce", // duplicate
	}
	resp := postJSON(t, srv.URL+"/v1/classify", map[string][]string{"urls": urls})
	body := decodeBody[classifyResponse](t, resp)
	if len(body.Results) != 3 {
		t.Fatalf("got %d results", len(body.Results))
	}
	for i, r := range body.Results {
		if r.URL != urls[i] {
			t.Errorf("result %d for %q, want %q", i, r.URL, urls[i])
		}
	}
	// Re-post: everything must now come from the cache.
	resp = postJSON(t, srv.URL+"/v1/classify", map[string][]string{"urls": urls[:2]})
	for _, r := range decodeBody[classifyResponse](t, resp).Results {
		if !r.Cached {
			t.Errorf("%q not served from cache on second request", r.URL)
		}
	}
}

func TestHTTPClassifyErrors(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	resp, err := http.Post(srv.URL+"/v1/classify", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
	resp = postJSON(t, srv.URL+"/v1/classify", map[string][]string{"urls": {}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", resp.StatusCode)
	}
	// GET on a POST route must not classify.
	getResp, err := http.Get(srv.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/classify: status %d", getResp.StatusCode)
	}
}

func TestHTTPClassifyBatchLimit(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{})
	srv := httptest.NewServer(NewHandler(Static(e, ModelInfo{Model: "NB/word"}), HandlerOptions{MaxBatch: 2}))
	defer srv.Close()
	resp := postJSON(t, srv.URL+"/v1/classify", map[string][]string{
		"urls": {"http://a.de", "http://b.de", "http://c.de"},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d", resp.StatusCode)
	}
	// A body over the byte cap must be rejected before it is decoded,
	// not after an enormous slice has been allocated.
	huge := `{"urls": ["http://a.de/` + strings.Repeat("x", 3*maxURLBytes) + `"]}`
	resp, err := http.Post(srv.URL+"/v1/classify", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d", resp.StatusCode)
	}
}

func TestHTTPStreamNDJSON(t *testing.T) {
	srv, _ := newTestServer(t, Options{CacheCapacity: 128})
	var in bytes.Buffer
	urls := []string{
		"http://www.wasserbett-test.de/preise",
		"http://www.produits-recherche.fr/annonces",
		"http://www.pagina-notizie.it/articolo",
	}
	// Mix all three accepted line shapes.
	fmt.Fprintf(&in, "{\"url\": %q}\n", urls[0])
	fmt.Fprintf(&in, "%q\n", urls[1])
	fmt.Fprintf(&in, "%s\n\n", urls[2]) // plus a blank line to skip

	resp, err := http.Post(srv.URL+"/v1/stream", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var got []resultJSON
	for sc.Scan() {
		var r resultJSON
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		got = append(got, r)
	}
	if len(got) != len(urls) {
		t.Fatalf("streamed %d results for %d lines", len(got), len(urls))
	}
	for i, r := range got {
		if r.URL != urls[i] {
			t.Errorf("stream result %d for %q, want %q (order violated)", i, r.URL, urls[i])
		}
	}
}

func TestHTTPStreamLargeFrontierExercisesChunking(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 4, CacheCapacity: 4096})
	n := streamChunk*2 + 37
	var in bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&in, "http://www.seite-%d.de/artikel/%d\n", i%113, i)
	}
	resp, err := http.Post(srv.URL+"/v1/stream", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	count := 0
	for sc.Scan() {
		count++
	}
	if count != n {
		t.Errorf("streamed %d results for %d inputs", count, n)
	}
}

// TestHTTPStreamFullDuplex uploads a frontier far larger than the
// socket buffers while reading results concurrently — the shape a real
// crawler client uses. Regression test for the HTTP/1.x server aborting
// the request body at the first response write (silent truncation).
func TestHTTPStreamFullDuplex(t *testing.T) {
	srv, e := newTestServer(t, Options{Workers: 4, CacheCapacity: 1 << 16})
	const n = 30000
	pr, pw := io.Pipe()
	go func() {
		defer pw.Close()
		for i := 0; i < n; i++ {
			k := i % 2500 // 2500 unique URLs cycled 12 times, like a frontier re-visiting hosts
			if _, err := fmt.Fprintf(pw, "http://www.seite-%d.de/artikel/%d\n", k%97, k); err != nil {
				return
			}
		}
	}()
	resp, err := http.Post(srv.URL+"/v1/stream", "application/x-ndjson", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	count := 0
	for sc.Scan() {
		count++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("response scan: %v", err)
	}
	if count != n {
		t.Errorf("streamed %d results for %d inputs; stats %+v", count, n, e.StatsSnapshot())
	}
	if stats := e.StatsSnapshot(); stats.CacheHitRate < 0.9 {
		t.Errorf("repetitive frontier hit-rate = %v, want > 0.9", stats.CacheHitRate)
	}
}

// TestHTTPStreamLockstepClient sends a few lines, keeps the request
// body open, and insists on receiving those results before sending the
// next round — the request/response cadence an adaptive crawler uses.
// Partial chunks must go out before the handler waits on the body for
// more lines, not wait for 512 lines or EOF.
func TestHTTPStreamLockstepClient(t *testing.T) {
	srv, _ := newTestServer(t, Options{CacheCapacity: 64})
	pr, pw := io.Pipe()
	resp := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		r, err := http.Post(srv.URL+"/v1/stream", "application/x-ndjson", pr)
		if err != nil {
			errc <- err
			return
		}
		resp <- r
	}()

	if _, err := io.WriteString(pw, "http://www.wetter.de/eins\nhttp://www.wetter.de/zwei\n"); err != nil {
		t.Fatal(err)
	}
	var r *http.Response
	select {
	case r = <-resp:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("no response headers while request body open")
	}
	defer r.Body.Close()

	sc := bufio.NewScanner(r.Body)
	readOne := func() string {
		t.Helper()
		lineCh := make(chan string, 1)
		go func() {
			if sc.Scan() {
				lineCh <- sc.Text()
			} else {
				lineCh <- ""
			}
		}()
		select {
		case l := <-lineCh:
			if l == "" {
				t.Fatalf("stream ended early (scan err: %v)", sc.Err())
			}
			return l
		case <-time.After(5 * time.Second):
			t.Fatal("result not flushed while request body stayed open")
			return ""
		}
	}
	for _, want := range []string{"/eins", "/zwei"} {
		if got := readOne(); !strings.Contains(got, want) {
			t.Fatalf("lockstep result = %q, want URL containing %q", got, want)
		}
	}
	// Second round on the same open stream.
	if _, err := io.WriteString(pw, "http://www.annonces.fr/drei\n"); err != nil {
		t.Fatal(err)
	}
	if got := readOne(); !strings.Contains(got, "/drei") {
		t.Fatalf("second round result = %q", got)
	}
	pw.Close()
	if sc.Scan() {
		t.Errorf("unexpected trailing line %q", sc.Text())
	}
}

func TestHTTPStreamBadLineReportsError(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	in := "http://ok.de/eins\n{\"not\": \"a url field\"}\nhttp://never-reached.de\n"
	resp, err := http.Post(srv.URL+"/v1/stream", "application/x-ndjson", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want result + error: %v", len(lines), lines)
	}
	if !strings.Contains(lines[1], "error") || !strings.Contains(lines[1], "line 2") {
		t.Errorf("error line = %q", lines[1])
	}
}

// TestHTTPStreamBadLineOnOpenUpload: a bad line in an upload that is
// still open gets its in-band error at once, and by then the engine pin
// and the model's in-flight gauge are released, so a reload need not
// wait for the client. The response ends when the client ends its
// upload, and the server logs nothing.
func TestHTTPStreamBadLineOnOpenUpload(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{Workers: 1})
	res := &pinCounter{Resolver: Static(e, ModelInfo{Model: snap.Describe()})}
	srv := httptest.NewUnstartedServer(NewHandler(res, HandlerOptions{}))
	var serverLog bytes.Buffer
	srv.Config.ErrorLog = log.New(&serverLog, "", 0)
	srv.Start()
	defer srv.Close()

	pr, pw := io.Pipe()
	defer pw.Close()
	go io.WriteString(pw, "http://www.wetter.de/eins\n{\"id\":7}\n")
	resp, err := http.Post(srv.URL+"/v1/stream", "application/x-ndjson", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	next := func() (string, bool) {
		select {
		case line, ok := <-lines:
			return line, ok
		case <-time.After(5 * time.Second):
			t.Fatal("no answer within 5s while the upload is open")
			return "", false
		}
	}
	if line, _ := next(); !strings.Contains(line, "/eins") {
		t.Fatalf("first line = %q, want the result for /eins", line)
	}
	var bad struct{ Error string }
	if line, _ := next(); json.Unmarshal([]byte(line), &bad) != nil || bad.Error != `line 2: object lacks a "url" field` {
		t.Fatalf("second line = %q, want the in-band error for line 2", line)
	}
	deadline := time.Now().Add(5 * time.Second)
	for (res.pins.Load() != 0 || e.Stats().InFlight() != 0) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p, n := res.pins.Load(), e.Stats().InFlight(); p != 0 || n != 0 {
		t.Fatalf("after the error line: %d pins held, %d in flight; want both released", p, n)
	}

	pw.Close()
	if line, ok := next(); ok {
		t.Errorf("unexpected line %q after the error", line)
	}
	srv.Close() // waits for the connection, so the log is complete
	if serverLog.Len() > 0 {
		t.Errorf("server logged %q", serverLog.String())
	}
}

// streamLines posts body to /v1/stream and returns the response lines.
func streamLines(t *testing.T, url string, body io.Reader) []string {
	t.Helper()
	resp, err := http.Post(url+"/v1/stream", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestHTTPStreamLineTooLong: a line over the 1 MiB line limit ends the
// stream with the results of the lines before it, then an in-band
// read error. The unread rest of the body must not trip net/http's
// concurrent-read panic on the connection afterwards.
func TestHTTPStreamLineTooLong(t *testing.T) {
	snap, _ := snapshot(t)
	eng := New(snap, Options{})
	srv := httptest.NewUnstartedServer(NewHandler(Static(eng, ModelInfo{Model: snap.Describe()}), HandlerOptions{}))
	var serverLog bytes.Buffer
	srv.Config.ErrorLog = log.New(&serverLog, "", 0)
	srv.Start()
	body := "http://www.wetter.de/eins\n\"http://www.annonces.fr/deux\"\n" +
		"http://long.de/" + strings.Repeat("x", 1<<20) + "\nhttp://never-reached.de\n"
	lines := streamLines(t, srv.URL, strings.NewReader(body))
	srv.Close() // waits for the connection, so the log is complete
	if serverLog.Len() > 0 {
		t.Errorf("server logged %q", serverLog.String())
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want two results and an error: %.200q", len(lines), lines)
	}
	for i, want := range []string{"http://www.wetter.de/eins", "http://www.annonces.fr/deux"} {
		var r resultJSON
		if err := json.Unmarshal([]byte(lines[i]), &r); err != nil || r.URL != want {
			t.Errorf("line %d = %q (%v), want the result for %s", i+1, lines[i], err, want)
		}
	}
	var e struct{ Error string }
	if err := json.Unmarshal([]byte(lines[2]), &e); err != nil || !strings.HasPrefix(e.Error, "reading stream: ") {
		t.Errorf("last line = %q, want a reading stream: error", lines[2])
	}
}

// TestHTTPStreamCRLFAndUnterminatedLine: CRLF line endings, and a last
// line without a newline, classify exactly like LF-terminated lines.
func TestHTTPStreamCRLFAndUnterminatedLine(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	lf := "http://www.wetter.de/eins\n\"http://www.annonces.fr/deux\"\n" +
		"{\"url\":\"http://www.notizie.it/tre\"}\nhttp://www.noticias.es/cuatro\n"
	want := streamLines(t, srv.URL, strings.NewReader(lf))
	if len(want) != 4 {
		t.Fatalf("LF upload gave %d lines, want 4: %q", len(want), want)
	}
	for name, body := range map[string]string{
		"CRLF":               strings.ReplaceAll(lf, "\n", "\r\n"),
		"unterminated":       strings.TrimSuffix(lf, "\n"),
		"CRLF, unterminated": strings.TrimSuffix(strings.ReplaceAll(lf, "\n", "\r\n"), "\r\n"),
	} {
		got := streamLines(t, srv.URL, strings.NewReader(body))
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s upload answered\n%q\nwant the LF answers\n%q", name, got, want)
		}
	}
}

// pinCounter counts the engine pins a Resolver hands out and has not
// had released.
type pinCounter struct {
	Resolver
	pins atomic.Int64
}

func (p *pinCounter) Resolve(name string) (*Engine, ModelInfo, func(), error) {
	e, info, release, err := p.Resolver.Resolve(name)
	if err != nil {
		return e, info, release, err
	}
	p.pins.Add(1)
	return e, info, func() { p.pins.Add(-1); release() }, nil
}

// TestHTTPClassifyPinsAfterBody: /v1/classify resolves its model only
// once the body is read, so an upload that stalls halfway pins no
// model version, and a swap during it need not wait for the client.
func TestHTTPClassifyPinsAfterBody(t *testing.T) {
	snap, _ := snapshot(t)
	res := &pinCounter{Resolver: Static(New(snap, Options{}), ModelInfo{Model: snap.Describe()})}
	h := NewHandler(res, HandlerOptions{})
	pr, pw := io.Pipe()
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- post(h, "/v1/classify", pr) }()
	// A pipe write returns once the handler has read every byte of it,
	// so from here on the handler waits on the rest of the body.
	if _, err := io.WriteString(pw, `{"urls":["http://www.wetter.de/eins",`); err != nil {
		t.Fatal(err)
	}
	if n := res.pins.Load(); n != 0 {
		t.Errorf("%d pins while the body is stalled, want 0", n)
	}
	if _, err := io.WriteString(pw, `"http://www.annonces.fr/deux"]}`); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	rec := <-done
	if rec.Code != http.StatusOK || strings.Count(rec.Body.String(), `"url":`) != 2 {
		t.Errorf("answer %d %q, want 200 with two results", rec.Code, rec.Body.String())
	}
	if n := res.pins.Load(); n != 0 {
		t.Errorf("%d pins after the answer, want 0", n)
	}
}

// TestHTTPStreamClientDisconnect: a client that goes away mid-upload,
// with the handler waiting on its body, ends the handler with the
// registry pin released and no goroutine left behind.
func TestHTTPStreamClientDisconnect(t *testing.T) {
	snap, _ := snapshot(t)
	e := New(snap, Options{Workers: 1})
	res := &pinCounter{Resolver: Static(e, ModelInfo{Model: snap.Describe()})}
	srv := httptest.NewServer(NewHandler(res, HandlerOptions{}))
	defer srv.Close()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	before := settledGoroutines()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	go io.WriteString(pw, "http://www.wetter.de/eins\nhttp://www.wetter.de/zw")
	resp, err := (&http.Client{Transport: transport}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The first result arrives while the upload is still open: the
	// handler is now waiting on the body for the rest of line two.
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.Contains(line, "/eins") {
		t.Fatalf("first result = %q, %v", line, err)
	}
	if n := res.pins.Load(); n != 1 {
		t.Fatalf("%d pins mid-stream, want 1", n)
	}
	cancel()
	resp.Body.Close()
	pw.Close()
	transport.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for res.pins.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := res.pins.Load(); n != 0 {
		t.Fatalf("%d pins held after the client went away", n)
	}
	if n := waitForGoroutines(before); n > before {
		t.Errorf("%d goroutines after the client went away, want <= %d", n, before)
	}
}

func TestHTTPHealthzAndStats(t *testing.T) {
	srv, _ := newTestServer(t, Options{CacheCapacity: 64})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeBody[map[string]any](t, resp)
	if health["status"] != "ok" || health["model"] != "NB/word" {
		t.Errorf("healthz = %v", health)
	}
	if health["compiled_mode"] != "linear" {
		t.Errorf("healthz compiled_mode = %v, want linear", health["compiled_mode"])
	}
	if health["name"] != "default" || health["version"] != float64(1) {
		t.Errorf("healthz identity = %v/%v, want default v1", health["name"], health["version"])
	}

	// Generate some traffic: one miss, one hit.
	u := "http://www.einzigartig-seite.de/pfad"
	postJSON(t, srv.URL+"/v1/classify", map[string]string{"url": u}).Body.Close()
	postJSON(t, srv.URL+"/v1/classify", map[string]string{"url": u}).Body.Close()

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody[statsResponse](t, resp)
	if stats.Model != "NB/word" || stats.Mode != "linear" {
		t.Errorf("stats identity = %q/%q, want NB/word running the linear mode", stats.Model, stats.Mode)
	}
	if stats.CacheHits < 1 || stats.CacheMisses < 1 {
		t.Errorf("stats did not count traffic: %+v", stats)
	}
	if stats.CacheHitRate <= 0 || stats.CacheHitRate >= 1 {
		t.Errorf("hit rate = %v", stats.CacheHitRate)
	}
	if stats.Requests != 2 {
		t.Errorf("requests = %d, want 2 classify calls counted", stats.Requests)
	}
	if stats.LatencyP50Usec <= 0 || stats.LatencyP99Usec < stats.LatencyP50Usec {
		t.Errorf("latency percentiles p50=%v p99=%v", stats.LatencyP50Usec, stats.LatencyP99Usec)
	}
	// The whole test's traffic lands inside the current partial second,
	// which QPSRecent correctly excludes — it may legitimately read 0
	// here, it just must never go negative or count the partial second
	// as a full one.
	if stats.QPSRecent < 0 || stats.QPSRecent > 2/recentWindow.Seconds() {
		t.Errorf("recent QPS = %v", stats.QPSRecent)
	}
}

// TestHTTPStatsJSONShape pins the wire shape of GET /stats: the
// satellite fields uptime_seconds and cache_hit_ratio must be present
// (as numbers, at the top level) alongside the identity and counter
// fields, and the server-level uptime must win over the swapped
// engine's own anchor.
func TestHTTPStatsJSONShape(t *testing.T) {
	srv, _ := newTestServer(t, Options{CacheCapacity: 64})
	u := "http://www.einzigartig-seite.de/pfad"
	postJSON(t, srv.URL+"/v1/classify", map[string]string{"url": u}).Body.Close()
	postJSON(t, srv.URL+"/v1/classify", map[string]string{"url": u}).Body.Close()

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw := decodeBody[map[string]any](t, resp)
	for _, key := range []string{
		"name", "model", "version", "uptime_seconds", "cache_hit_ratio",
		"cache_hit_rate", "cache_hits", "cache_misses", "urls", "requests",
	} {
		if _, present := raw[key]; !present {
			t.Errorf("/stats lacks %q: %v", key, raw)
		}
	}
	up, ok := raw["uptime_seconds"].(float64)
	if !ok || up < 0 {
		t.Errorf("uptime_seconds = %v", raw["uptime_seconds"])
	}
	ratio, ok := raw["cache_hit_ratio"].(float64)
	if !ok || ratio <= 0 || ratio >= 1 {
		t.Errorf("cache_hit_ratio = %v, want in (0,1) after one hit of two URLs", raw["cache_hit_ratio"])
	}
}

// multiResolver is a test double with two slots and a scripted Reload,
// so the routing surface can be exercised without dragging the real
// registry into serve's tests (the registry depends on serve, not the
// other way around).
type multiResolver struct {
	engines map[string]*Engine
	infos   map[string]ModelInfo
	def     string
	reloads int
}

func (m *multiResolver) Resolve(name string) (*Engine, ModelInfo, func(), error) {
	if name == "" {
		name = m.def
	}
	e, ok := m.engines[name]
	if !ok {
		return nil, ModelInfo{}, nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return e, m.infos[name], func() {}, nil
}

func (m *multiResolver) Models() []ModelInfo {
	out := []ModelInfo{m.infos[m.def]}
	for name, info := range m.infos {
		if name != m.def {
			out = append(out, info)
		}
	}
	return out
}

func (m *multiResolver) SlotStates() []SlotState {
	var out []SlotState
	for _, info := range m.Models() {
		out = append(out, SlotState{Model: info, Ready: true, Swaps: info.Version})
	}
	return out
}

func (m *multiResolver) Reload(name string) (ModelInfo, bool, error) {
	info, ok := m.infos[name]
	if !ok {
		return ModelInfo{}, false, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if info.Path == "" {
		return info, false, fmt.Errorf("%q: %w", name, ErrNotReloadable)
	}
	m.reloads++
	info.Version++
	m.infos[name] = info
	return info, true, nil
}

func newMultiServer(t *testing.T) (*httptest.Server, *multiResolver) {
	t.Helper()
	snap, _ := snapshot(t)
	fast := New(snap, Options{CacheCapacity: 64})
	slow := New(snap, Options{})
	m := &multiResolver{
		engines: map[string]*Engine{"fast": fast, "slow": slow},
		infos: map[string]ModelInfo{
			"fast": {Name: "fast", Model: "NB/word", Mode: "linear", Version: 3, Digest: "abc", Path: "/tmp/fast.model"},
			"slow": {Name: "slow", Model: "RE/word", Mode: "linear", Version: 1},
		},
		def: "fast",
	}
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{}))
	t.Cleanup(srv.Close)
	return srv, m
}

// TestHTTPModelRouting: ?model= selects the slot on /v1/classify and
// /stats, the default applies when absent, and unknown names 404.
func TestHTTPModelRouting(t *testing.T) {
	srv, _ := newMultiServer(t)
	u := map[string]string{"url": "http://www.wetter.de/bericht"}

	body := decodeBody[classifyResponse](t, postJSON(t, srv.URL+"/v1/classify", u))
	if body.Name != "fast" || body.Version != 3 {
		t.Errorf("default route answered by %s v%d, want fast v3", body.Name, body.Version)
	}
	body = decodeBody[classifyResponse](t, postJSON(t, srv.URL+"/v1/classify?model=slow", u))
	if body.Name != "slow" || body.Model != "RE/word" {
		t.Errorf("?model=slow answered by %s (%s)", body.Name, body.Model)
	}
	resp := postJSON(t, srv.URL+"/v1/classify?model=nope", u)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", resp.StatusCode)
	}

	statsResp, err := http.Get(srv.URL + "/v1/models/slow/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[statsResponse](t, statsResp)
	if st.Name != "slow" || st.URLs != 1 {
		t.Errorf("per-model stats = %s with %d URLs, want slow with 1", st.Name, st.URLs)
	}
	missResp, err := http.Get(srv.URL + "/v1/models/nope/stats")
	if err != nil {
		t.Fatal(err)
	}
	missResp.Body.Close()
	if missResp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model stats: status %d, want 404", missResp.StatusCode)
	}
}

// TestHTTPModelsListAndReload covers GET /v1/models and the reload
// endpoint's status mapping: 200 with changed, 404 for unknown names,
// 409 for models with no backing file.
func TestHTTPModelsListAndReload(t *testing.T) {
	srv, m := newMultiServer(t)
	resp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Models  []ModelInfo `json:"models"`
		Default string      `json:"default"`
	}](t, resp)
	if list.Default != "fast" || len(list.Models) != 2 {
		t.Fatalf("models list = %+v", list)
	}
	if list.Models[0].Name != "fast" || list.Models[0].Digest != "abc" {
		t.Errorf("default-first ordering violated: %+v", list.Models)
	}

	reload := func(name string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/models/"+name+"/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		return resp, body
	}
	resp2, body := reload("fast")
	if resp2.StatusCode != http.StatusOK || body["changed"] != true || m.reloads != 1 {
		t.Errorf("reload fast: status %d body %v (reloads %d)", resp2.StatusCode, body, m.reloads)
	}
	resp2, _ = reload("nope")
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("reload unknown: status %d, want 404", resp2.StatusCode)
	}
	resp2, _ = reload("slow")
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("reload file-less model: status %d, want 409", resp2.StatusCode)
	}
}

func TestHTTPMalformedURLsNeverPanic(t *testing.T) {
	srv, _ := newTestServer(t, Options{CacheCapacity: 16})
	bad := []string{
		"", " ", "%%%", "http://", "://x", "http://[::1]:bad/",
		"a\tb\x00c", strings.Repeat("%2e", 5000), "xn--zzzz--0-",
	}
	resp := postJSON(t, srv.URL+"/v1/classify", map[string][]string{"urls": bad})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decodeBody[classifyResponse](t, resp)
	if len(body.Results) != len(bad) {
		t.Errorf("got %d results for %d malformed URLs", len(body.Results), len(bad))
	}
}
