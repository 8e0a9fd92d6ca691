package urllangid_test

import (
	"io"
	"sync"
	"testing"

	"urllangid"
	"urllangid/internal/datagen"
)

var (
	batcherModelOnce sync.Once
	batcherClf       *urllangid.Classifier
	batcherSnap      *urllangid.Snapshot
)

func batcherModels(t *testing.T) (*urllangid.Classifier, *urllangid.Snapshot) {
	t.Helper()
	batcherModelOnce.Do(func() {
		ds := datagen.Generate(datagen.Config{
			Kind: datagen.ODP, Seed: 33, TrainPerLang: 400, TestPerLang: 1,
		})
		clf, err := urllangid.Train(urllangid.Options{Seed: 33}, ds.Train)
		if err != nil {
			panic(err)
		}
		batcherClf = clf
		batcherSnap = clf.Compile()
	})
	return batcherClf, batcherSnap
}

func batchURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = "http://www.seite-" + string(rune('a'+i%26)) + ".de/artikel"
	}
	return urls
}

func TestBatcherMatchesModel(t *testing.T) {
	clf, snap := batcherModels(t)
	for _, m := range []urllangid.Model{clf, snap} {
		b := urllangid.NewBatcher(m, urllangid.WithWorkers(4), urllangid.WithCache(256))
		urls := append(batchURLs(100), "", "garbage url")
		got := b.ClassifyBatch(urls)
		if len(got) != len(urls) {
			t.Fatalf("batcher returned %d results for %d urls", len(got), len(urls))
		}
		for i, u := range urls {
			if got[i] != m.Classify(u) {
				t.Fatalf("batcher[%d] differs from %s.Classify(%q)", i, m.Describe(), u)
			}
			if b.Classify(u) != m.Classify(u) {
				t.Fatalf("batcher single Classify differs on %q", u)
			}
		}
		if b.Describe() != m.Describe() {
			t.Errorf("Describe = %q, want %q", b.Describe(), m.Describe())
		}
	}
}

func TestBatcherStatsGating(t *testing.T) {
	_, snap := batcherModels(t)
	plain := urllangid.NewBatcher(snap)
	plain.ClassifyBatch(batchURLs(10))
	if _, ok := plain.Stats(); ok {
		t.Error("Stats reported ok without WithStats")
	}

	tracked := urllangid.NewBatcher(snap, urllangid.WithCache(128), urllangid.WithStats())
	urls := batchURLs(10)
	tracked.ClassifyBatch(urls)
	tracked.ClassifyBatch(urls) // second round: cache hits
	stats, ok := tracked.Stats()
	if !ok {
		t.Fatal("Stats not available despite WithStats")
	}
	if stats.URLs != 20 {
		t.Errorf("stats URLs = %d, want 20", stats.URLs)
	}
	if stats.CacheHits == 0 {
		t.Error("repeated batch produced no cache hits")
	}
}

// TestBatcherCacheCollapsesNormalizedVariants: snapshot-backed batchers
// key the cache by the structural normal form.
func TestBatcherCacheCollapsesNormalizedVariants(t *testing.T) {
	_, snap := batcherModels(t)
	b := urllangid.NewBatcher(snap, urllangid.WithCache(64), urllangid.WithStats())
	b.Classify("http://www.wetter-bericht.de/heute")
	b.Classify("HTTPS://WWW.WETTER-BERICHT.DE/heute")
	stats, _ := b.Stats()
	if stats.CacheHits != 1 {
		t.Errorf("normalized variant missed the cache: hits = %d", stats.CacheHits)
	}
}

// fixedModel is a foreign Model implementation (not one of the package's
// concrete types); the Batcher must adapt it through Classify.
type fixedModel struct{}

func (fixedModel) Classify(rawURL string) urllangid.Result {
	var scores [urllangid.NumLanguages]float64
	for i := range scores {
		scores[i] = float64(len(rawURL) - 10 + i)
	}
	return urllangid.NewResult(scores)
}

func (m fixedModel) ClassifyBatch(urls []string) []urllangid.Result {
	out := make([]urllangid.Result, len(urls))
	for i, u := range urls {
		out[i] = m.Classify(u)
	}
	return out
}

func (fixedModel) Describe() string       { return "fixed" }
func (fixedModel) Save(w io.Writer) error { return nil }

func TestBatcherWrapsForeignModel(t *testing.T) {
	var m fixedModel
	b := urllangid.NewBatcher(m, urllangid.WithWorkers(2))
	urls := []string{"http://a.de/x", "http://longer-url.fr/yyy", "http://a.de/x"}
	got := b.ClassifyBatch(urls)
	for i, u := range urls {
		if got[i] != m.Classify(u) {
			t.Fatalf("adapted batcher diverged at %d", i)
		}
	}
}
