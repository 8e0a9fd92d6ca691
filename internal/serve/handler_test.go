package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"urllangid/internal/datagen"
)

var (
	wcOnce sync.Once
	wcPool []string
)

// wcURLs returns the first n of a fixed pool of distinct WC crawl URLs,
// the distribution the serving benchmark's frontier workloads draw from.
func wcURLs(tb testing.TB, n int) []string {
	tb.Helper()
	wcOnce.Do(func() {
		ds := datagen.Generate(datagen.Config{Kind: datagen.WC, Seed: 41, TestPerLang: 3600})
		seen := make(map[string]bool, len(ds.Test))
		for _, s := range ds.Test {
			if !seen[s.URL] {
				seen[s.URL] = true
				wcPool = append(wcPool, s.URL)
			}
		}
	})
	if n > len(wcPool) {
		tb.Fatalf("want %d WC URLs, the pool has %d", n, len(wcPool))
	}
	return wcPool[:n]
}

// classifyBody is a /v1/classify batch body as a JSON client sends it.
func classifyBody(urls []string) []byte {
	b, err := json.Marshal(struct {
		URLs []string `json:"urls"`
	}{urls})
	if err != nil {
		panic(err) // a []string always marshals
	}
	return b
}

// streamBody is a /v1/stream upload of {"url":…} lines.
func streamBody(urls []string) []byte {
	var b bytes.Buffer
	for _, u := range urls {
		line, err := json.Marshal(struct {
			URL string `json:"url"`
		}{u})
		if err != nil {
			panic(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// newSnapshotHandler serves the test snapshot through an engine built
// with opts.
func newSnapshotHandler(tb testing.TB, opts Options) http.Handler {
	tb.Helper()
	snap, _ := snapshot(tb)
	e := New(snap, opts)
	return NewHandler(Static(e, ModelInfo{Model: snap.Describe(), Mode: snap.Mode()}), HandlerOptions{})
}

// post runs one POST of body to path through h.
func post(h http.Handler, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	return rec
}

// TestStreamHandlerAllocBudget bounds the in-process /v1/stream path —
// body scan, line parse, batch classify, pooled response encode — per
// line. A strict {"url":…} line costs its URL string; the rest is fixed
// per upload or per micro-batch.
func TestStreamHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	h := newSnapshotHandler(t, Options{Workers: 1})
	const lines = 4096
	body := streamBody(wcURLs(t, lines))
	if rec := post(h, "/v1/stream", bytes.NewReader(body)); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if rec := post(h, "/v1/stream", bytes.NewReader(body)); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	if perLine := allocs / lines; perLine > 2 {
		t.Errorf("stream handler allocates %.2f per line (%.0f per upload), want <= 2", perLine, allocs)
	}
}

// BenchmarkClassifyHandler serves one 64-URL WC batch per op in-process:
// decode, uncached scoring across the default workers, encode.
func BenchmarkClassifyHandler(b *testing.B) {
	benchmarkClassifyHandler(b, classifyBody(wcURLs(b, 64)))
}

// BenchmarkClassifyHandlerEscaped is BenchmarkClassifyHandler with an
// "&" query in every URL, which json.Marshal escapes as \u0026: the
// whole body takes the encoding/json fallback.
func BenchmarkClassifyHandlerEscaped(b *testing.B) {
	urls := append([]string(nil), wcURLs(b, 64)...)
	for i := range urls {
		urls[i] += "&ref=" + strconv.Itoa(i)
	}
	body := classifyBody(urls)
	if _, ok := parseClassify(body); ok {
		b.Fatal("escaped body took the strict path")
	}
	benchmarkClassifyHandler(b, body)
}

func benchmarkClassifyHandler(b *testing.B, body []byte) {
	h := newSnapshotHandler(b, Options{})
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(h, "/v1/classify", bytes.NewReader(body)); rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkStreamHandler serves one 16,384-line WC upload per op
// in-process and reports the cost per line.
func BenchmarkStreamHandler(b *testing.B) { benchmarkStreamHandler(b, 0) }

// BenchmarkStreamHandlerSmallReads is BenchmarkStreamHandler with the
// body arriving 1.5 KiB per Read, as a frontier sent over a network
// may: a partial micro-batch goes out before every Read, so this is
// the cost of batches of about 27 lines.
func BenchmarkStreamHandlerSmallReads(b *testing.B) { benchmarkStreamHandler(b, 1536) }

// benchmarkStreamHandler runs the stream benchmark with Reads of the
// body capped at readSize bytes, or uncapped if readSize is 0.
func benchmarkStreamHandler(b *testing.B, readSize int) {
	h := newSnapshotHandler(b, Options{})
	const lines = 16384
	body := streamBody(wcURLs(b, lines))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r io.Reader = bytes.NewReader(body)
		if readSize > 0 {
			r = &smallReader{r: r, n: readSize}
		}
		if rec := post(h, "/v1/stream", r); rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
}

// smallReader returns at most n bytes per Read.
type smallReader struct {
	r io.Reader
	n int
}

func (s *smallReader) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), s.n)]) }

// FuzzClassifyHandler sends raw bodies through the in-process
// /v1/classify handler: it must never panic, and must answer either 200
// with a JSON body or a 4xx.
func FuzzClassifyHandler(f *testing.F) {
	for _, body := range append(plainClassifyBodies, fallbackClassifyBodies...) {
		f.Add([]byte(body))
	}
	f.Add(classifyBody(wcURLs(f, 64)))
	h := newSnapshotHandler(f, Options{CacheCapacity: 64, Workers: 2})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(h, "/v1/classify", bytes.NewReader(body))
		switch {
		case rec.Code == http.StatusOK:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("200 with invalid JSON %q for body %q", rec.Body.Bytes(), body)
			}
		case rec.Code < 400 || rec.Code >= 500:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}

// FuzzStreamHandler sends raw bodies through the in-process /v1/stream
// handler: it must never panic, and must answer either 200 with NDJSON
// whose every line parses or a 4xx.
func FuzzStreamHandler(f *testing.F) {
	f.Add(streamBody(wcURLs(f, 8)))
	f.Add([]byte(strings.Join(append(plainStreamLines, ""), "\n")))
	f.Add([]byte(strings.Join(plainStreamLines, "\r\n")))
	for _, line := range fallbackStreamLines {
		f.Add([]byte("http://a.de/x\n" + line + "\nhttp://b.fr/y\n"))
	}
	f.Add([]byte("\n\n \t\n"))
	h := newSnapshotHandler(f, Options{CacheCapacity: 64, Workers: 2})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(h, "/v1/stream", bytes.NewReader(body))
		switch {
		case rec.Code == http.StatusOK:
			out := rec.Body.Bytes()
			if len(out) > 0 && out[len(out)-1] != '\n' {
				t.Fatalf("NDJSON %q does not end in a newline", out)
			}
			sc := bufio.NewScanner(bytes.NewReader(out))
			sc.Buffer(nil, len(out)+1)
			for sc.Scan() {
				if !json.Valid(sc.Bytes()) {
					t.Fatalf("invalid NDJSON line %q for body %q", sc.Bytes(), body)
				}
			}
		case rec.Code < 400 || rec.Code >= 500:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}
