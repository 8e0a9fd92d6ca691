package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/datagen"
	"urllangid/internal/features"
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

// checkJSONFloat fails t unless appendJSONFloat formats f exactly as
// json.Marshal does. f must be finite: encoding/json refuses the rest.
func checkJSONFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendJSONFloat(nil, f); string(got) != string(want) {
		t.Fatalf("appendJSONFloat(%v) [bits %#016x] = %s, want %s", f, math.Float64bits(f), got, want)
	}
}

// FuzzAppendJSONFloat holds the float formatter, the fast kernel and
// the strconv fallback alike, to encoding/json for any finite 64-bit
// pattern.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, x := range []float64{
		-12.345678901234567, 0.1, 0.5, -0.75, 1.0 / 3, 0x1p-9, 0x1p53 - 1, 4503599627370495.5,
		1e-6, 1e21, 0, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		x := math.Float64frombits(u)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Skip("encoding/json refuses NaN and ±Inf")
		}
		checkJSONFloat(t, x)
	})
}

// TestAppendJSONFloatSweep runs the float formatter over the doubles
// where a shortest-digit kernel can go wrong, against encoding/json:
// both ends of every binade and their neighbours (so every power of
// two), the kernel's range edges, exact integers, encoding/json's
// format switch points, and seeded random doubles, both over all bit
// patterns and inside the kernel's range.
func TestAppendJSONFloatSweep(t *testing.T) {
	var cases []float64
	withNeighbours := func(x float64) {
		cases = append(cases, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	for e := uint64(0); e < 0x7ff; e++ {
		withNeighbours(math.Float64frombits(e << 52))             // first of the binade
		withNeighbours(math.Float64frombits(e<<52 | (1<<52 - 1))) // last of the binade
	}
	for _, x := range []float64{0x1p-9, 0x1p52, 0x1p53, 1e-6, 1e21} {
		withNeighbours(x)
	}
	cases = append(cases, 0x1p52-0.5, 0x1p52+0.5, 0x1p51+0.5, 0x1p53-1, 0x1p53+2)
	for i := 0; i <= 1000; i++ {
		cases = append(cases, float64(i))
	}
	for _, x := range pow10 {
		withNeighbours(float64(x))
	}

	random := 2_000_000
	if raceEnabled {
		random = 200_000 // the race detector has nothing to watch here
	}
	rng := rand.New(rand.NewPCG(22, 2))
	for i := 0; i < random; i++ {
		if i%2 == 0 {
			cases = append(cases, math.Float64frombits(rng.Uint64()))
			continue
		}
		// Inside the kernel's range: a binade from 2^-9 to 2^52, any
		// significand.
		exp := uint64(1014 + rng.IntN(62))
		cases = append(cases, math.Float64frombits(exp<<52|rng.Uint64()&(1<<52-1)))
	}

	for _, x := range cases {
		for _, v := range [2]float64{x, -x} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			checkJSONFloat(t, v)
		}
	}
}

var (
	fixtureScoresOnce sync.Once
	fixtureScoreList  []float64
)

// fixtureScores returns every score two trained snapshots give a set of
// generated WC URLs: the NB/word snapshot of snapshot() and an NB/trigram
// snapshot trained on the same ODP corpus, the benchmark's two tiers.
func fixtureScores(t testing.TB) []float64 {
	t.Helper()
	word, _ := snapshot(t)
	fixtureScoresOnce.Do(func() {
		ds := datagen.Generate(datagen.Config{Kind: datagen.ODP, Seed: 41, TrainPerLang: 800, TestPerLang: 1})
		sys, err := core.Train(core.Config{Algo: core.NaiveBayes, Features: features.Trigrams, Seed: 41}, ds.Train)
		if err != nil {
			panic(err)
		}
		trigram := compiled.FromSystem(sys)
		wc := datagen.Generate(datagen.Config{Kind: datagen.WC, Seed: 41, TestPerLang: 4000})
		for _, s := range wc.Test {
			for _, snap := range [2]*compiled.Snapshot{word, trigram} {
				scores := snap.Scores(s.URL)
				fixtureScoreList = append(fixtureScoreList, scores[:]...)
			}
		}
	})
	return fixtureScoreList
}

// TestAppendJSONFloatSnapshotScores checks the float formatter against
// encoding/json on every score the trained snapshots give generated WC
// URLs: the values the serving responses carry.
func TestAppendJSONFloatSnapshotScores(t *testing.T) {
	scores := fixtureScores(t)
	if len(scores) < 100_000 {
		t.Fatalf("only %d scores", len(scores))
	}
	for _, f := range scores {
		checkJSONFloat(t, f)
	}
}

var floatSink []byte

// BenchmarkAppendJSONFloat formats trained-snapshot scores through the
// serving formatter and through the strconv call it used before.
func BenchmarkAppendJSONFloat(b *testing.B) {
	scores := fixtureScores(b)
	for _, bc := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{
		{"kernel", appendJSONFloat},
		{"strconv", func(dst []byte, f float64) []byte { return strconv.AppendFloat(dst, f, 'f', -1, 64) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			j := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = bc.fn(buf[:0], scores[j])
				if j++; j == len(scores) {
					j = 0
				}
			}
			floatSink = buf
		})
	}
}
