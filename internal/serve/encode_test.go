package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"urllangid/internal/langid"
)

// encodeCases covers the byte-level contract's edges: score signs and
// magnitudes that flip encoding/json's float format, URLs needing HTML
// or control escaping, non-ASCII, the cached flag, and empty/full
// language claims.
func encodeCases() []Result {
	mk := func(url string, scores [langid.NumLanguages]float64, cached bool) Result {
		return Result{URL: url, Result: langid.NewResult(scores), Cached: cached}
	}
	return []Result{
		mk("http://www.wetter-bericht.de/heute", [5]float64{-1.25, 3.5, -0.75, -2, -4.125}, false),
		mk("http://plain.example.com/path?q=1", [5]float64{0, 0, 0, 0, 0}, true),
		mk("http://all-negative.example/x", [5]float64{-1, -2, -3, -4, -5}, false),
		mk("http://tiny-scores.example/", [5]float64{1e-9, -1e-9, 2.5e-7, -1, 1}, false),
		mk("http://huge-scores.example/", [5]float64{1e22, -1e21, 1e21, -1.5, 0.5}, true),
		mk("http://odd.example/a&b<c>d", [5]float64{1, -1, 1, -1, 1}, false),
		mk("http://unicode.example/ünïcode/ページ", [5]float64{0.1, 0.2, -0.3, -0.4, 0.5}, true),
		mk("http://quote.example/\"quoted\"\\back", [5]float64{-0.5, 0.25, -0.125, 2, -3}, false),
		mk("http://ctrl.example/line\nbreak\ttab", [5]float64{1.5, -1.5, 1.5, -1.5, 1.5}, false),
		mk("", [5]float64{math.SmallestNonzeroFloat64, -math.MaxFloat64, 1e-6, -1e-7, 1e20}, true),
	}
}

// TestAppendResultMatchesEncodingJSON pins the hand-rolled encoder's
// contract: for every edge case it emits exactly the bytes
// json.Marshal(toJSON(r)) would.
func TestAppendResultMatchesEncodingJSON(t *testing.T) {
	for _, r := range encodeCases() {
		want, err := json.Marshal(toJSON(r))
		if err != nil {
			t.Fatal(err)
		}
		got := appendResult(nil, r)
		if string(got) != string(want) {
			t.Errorf("appendResult(%q) diverges from encoding/json:\n got %s\nwant %s", r.URL, got, want)
		}
	}
}

// TestAppendJSONFloat sweeps the float formatter across encoding/json's
// format boundaries.
func TestAppendJSONFloat(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.5, -0.125, 1e-6, -1e-6, 9.9e-7, 1e-9, -1e-9,
		1e20, 1e21, -1e21, 1.5e22, math.MaxFloat64, math.SmallestNonzeroFloat64,
		3.141592653589793, -2.718281828459045,
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); string(got) != string(want) {
			t.Errorf("appendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// TestAppendResultZeroAllocs pins the satellite's whole point: encoding
// a plain-ASCII result into a pre-grown buffer allocates nothing. This
// is what let the serving handlers drop below the ~20.5 allocations
// per URL they made before this encoder.
func TestAppendResultZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	r := Result{
		URL:    "http://www.wetter-bericht.de/heute",
		Result: langid.NewResult([5]float64{-1.25, 3.5, -0.75, -2, -4.125}),
		Cached: true,
	}
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(200, func() {
		buf = appendResult(buf[:0], r)
	})
	if allocs != 0 {
		t.Errorf("appendResult allocates %.1f times per result, want 0", allocs)
	}
}

// TestClassifyHandlerAllocBudget bounds the whole in-process request
// path — JSON decode, batch classify, pooled response encode — at well
// under the ~20.5 allocations per URL it made before this encoder. The
// bound is generous (handler fixed costs amortise over the batch; the
// classify itself is allocation-free) so it only trips on a real
// regression, like the per-result map encoding this replaced.
func TestClassifyHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	snap, _ := snapshot(t)
	e := New(snap, Options{Workers: 1})
	h := NewHandler(Static(e, ModelInfo{Model: snap.Describe(), Mode: snap.Mode()}), HandlerOptions{})

	urls := make([]string, 64)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://www.wetter-seite%d.de/bericht%d", i, i)
	}
	body, err := json.Marshal(map[string][]string{"urls": urls})
	if err != nil {
		t.Fatal(err)
	}

	// Warm the encode-buffer pool and the classify path once.
	run := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := run(); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if code := run(); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	})
	perURL := allocs / float64(len(urls))
	if perURL > 10 {
		t.Errorf("classify handler allocates %.2f per URL (%.0f per request), want <= 10", perURL, allocs)
	}
}
