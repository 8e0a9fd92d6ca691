package registry

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"urllangid/internal/cascade"
	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/datagen"
	"urllangid/internal/features"
	"urllangid/internal/langid"
	"urllangid/internal/serve"
)

// trainConfigSystem trains an arbitrary configuration on the shared
// synthetic corpus, for cascade tiers beyond the NB/word default.
func trainConfigSystem(t testing.TB, cfg core.Config) *core.System {
	t.Helper()
	ds := datagen.Generate(datagen.Config{
		Kind: datagen.ODP, Seed: 17, TrainPerLang: 300, TestPerLang: 40,
	})
	sys, err := core.Train(cfg, ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// cascadeProbes mixes clearly-marked URLs with ambiguous ones so a
// mid-range threshold routes some to each tier.
var cascadeProbes = []string{
	"http://www.nachrichten-wetter.de/zeitung/artikel",
	"http://www.produits-recherche.fr/annonces/paris",
	"http://www.ofertas-tienda.es/rebajas/hoy",
	"http://www.notizie-calcio.it/serie-a/roma",
	"http://www.weather-report.com/forecast/today",
	"http://example.org/a",
	"http://site.net/page/1",
	"http://www.info-online.org/data",
}

func TestInstallCascadeValidation(t *testing.T) {
	reg := New(Options{})
	defer reg.Close()
	snap := compiled.FromSystem(trainSystem(t, 31))
	if _, err := reg.Install("fast", snap, snap.Describe(), snap.Mode()); err != nil {
		t.Fatal(err)
	}
	snap2 := compiled.FromSystem(trainSystem(t, 41))
	if _, err := reg.Install("slow", snap2, snap2.Describe(), snap2.Mode()); err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		name, fast, slow string
		wantSub          string
	}{
		{"c", "", "slow", "both tier names"},
		{"c", "fast", "", "both tier names"},
		{"c", "c", "slow", "its own tier"},
		{"c", "fast", "c", "its own tier"},
		{"c", "fast", "fast", "must differ"},
		{"c", "fast", "ghost", "unknown model"},
	}
	for _, tc := range bad {
		_, err := reg.InstallCascade(tc.name, tc.fast, tc.slow, cascade.Config{})
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("InstallCascade(%q,%q,%q) err = %v, want substring %q",
				tc.name, tc.fast, tc.slow, err, tc.wantSub)
		}
	}

	if _, err := reg.InstallCascade("casc", "fast", "slow", cascade.Config{}); err != nil {
		t.Fatalf("valid InstallCascade: %v", err)
	}
	// Cascades do not nest, in either tier position.
	if _, err := reg.InstallCascade("casc2", "casc", "slow", cascade.Config{}); err == nil ||
		!strings.Contains(err.Error(), "do not nest") {
		t.Fatalf("nested fast tier accepted: %v", err)
	}
	if _, err := reg.InstallCascade("casc2", "fast", "casc", cascade.Config{}); err == nil ||
		!strings.Contains(err.Error(), "do not nest") {
		t.Fatalf("nested slow tier accepted: %v", err)
	}

	// The cascade serves through the standard resolver surface.
	l, err := reg.Acquire("casc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if l.Info().Mode != "cascade" || l.Info().Model != "cascade(fast→slow)" {
		t.Fatalf("cascade identity = %+v", l.Info())
	}
	if r := l.Engine().Classify("http://www.nachrichten.de/"); r.URL == "" {
		t.Fatal("cascade engine did not classify")
	}
}

// TestCascadeEquivalence is the acceptance equivalence proof: for each
// Algorithm×FeatureSet tier pairing, every URL's cascade answer is
// bit-identical to the slow tier's when the cascade escalated and to
// the fast tier's when it did not — the cascade adds routing, never
// arithmetic.
func TestCascadeEquivalence(t *testing.T) {
	pairs := []struct {
		label      string
		fast, slow core.Config
	}{
		{
			"nb-word→knn-word",
			core.Config{Algo: core.NaiveBayes, Features: features.Words, Seed: 1},
			core.Config{Algo: core.KNN, Features: features.Words, Seed: 1, KNNMaxReference: 300},
		},
		{
			"nb-trigram→dtree-custom",
			core.Config{Algo: core.NaiveBayes, Features: features.Trigrams, Seed: 1},
			core.Config{Algo: core.DecisionTree, Features: features.CustomSelected, Seed: 1},
		},
	}
	for _, pair := range pairs {
		pair := pair
		t.Run(pair.label, func(t *testing.T) {
			t.Parallel()
			fastSnap := compiled.FromSystem(trainConfigSystem(t, pair.fast))
			slowSnap := compiled.FromSystem(trainConfigSystem(t, pair.slow))

			reg := New(Options{})
			defer reg.Close()
			if _, err := reg.Install("fast", fastSnap, fastSnap.Describe(), fastSnap.Mode()); err != nil {
				t.Fatal(err)
			}
			if _, err := reg.Install("slow", slowSnap, slowSnap.Describe(), slowSnap.Mode()); err != nil {
				t.Fatal(err)
			}
			// Median fast margin as threshold: both routes must occur.
			margins := make([]float64, 0, len(cascadeProbes))
			for _, u := range cascadeProbes {
				margins = append(margins, fastSnap.Classify(u).Margin())
			}
			threshold := medianOf(margins)
			cfg := cascade.Config{Threshold: threshold}
			if _, err := reg.InstallCascade("casc", "fast", "slow", cfg); err != nil {
				t.Fatal(err)
			}
			l, err := reg.Acquire("casc")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Release()
			casc := l.Engine().Predictor().(*cascade.Cascade)

			// Replicate the escalation contract per probe and demand
			// bit-identity with the deciding tier.
			confusable := map[[2]langid.Language]bool{}
			for _, p := range cascade.DefaultConfusablePairs() {
				confusable[p] = true
				confusable[[2]langid.Language{p[1], p[0]}] = true
			}
			sawFast, sawSlow := false, false
			for _, u := range cascadeProbes {
				fastScores := fastSnap.Scores(u)
				best, second := langid.TopTwoFromScores(fastScores)
				escalate := confusable[[2]langid.Language{best, second}] ||
					langid.MarginFromScores(fastScores) < threshold
				want := fastScores
				if escalate {
					want = slowSnap.Scores(u)
					sawSlow = true
				} else {
					sawFast = true
				}
				if got := casc.Scores(u); got != want {
					t.Fatalf("%q (escalate=%v): cascade %v, deciding tier %v", u, escalate, got, want)
				}
				// Classify composes the same scores into a Result.
				if got := casc.Classify(u); got != langid.NewResult(want) {
					t.Fatalf("%q: Classify drifted from Scores", u)
				}
			}
			if !sawFast || !sawSlow {
				t.Fatalf("probes exercised only one route (fast=%v slow=%v); equivalence proved nothing", sawFast, sawSlow)
			}
			st := casc.TierStats()
			// Scores+Classify per probe: every probe counted twice.
			if total := st.FastServed() + st.Escalations(); total != int64(2*len(cascadeProbes)) {
				t.Fatalf("stats counted %d classifications, want %d", total, 2*len(cascadeProbes))
			}
		})
	}
}

func medianOf(vals []float64) float64 {
	sorted := append([]float64(nil), vals...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	return sorted[len(sorted)/2]
}

// TestCascadeClassifyZeroAlloc is the acceptance allocation gate: the
// full request path — resolve the cascade, pin both tiers, score the
// fast tier, decide, release — performs zero heap allocations when the
// fast tier answers.
func TestCascadeClassifyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	fastSnap := compiled.FromSystem(trainSystem(t, 31))
	slowSnap := compiled.FromSystem(trainSystem(t, 41))
	reg := New(Options{Engine: serve.Options{Workers: 1}})
	defer reg.Close()
	if _, err := reg.Install("fast", fastSnap, fastSnap.Describe(), fastSnap.Mode()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("slow", slowSnap, slowSnap.Describe(), slowSnap.Mode()); err != nil {
		t.Fatal(err)
	}
	// The smallest positive threshold with confusable routing disabled:
	// no probe escalates, pinning the pure fast path.
	cfg := cascade.Config{
		Threshold:  math.SmallestNonzeroFloat64,
		Confusable: [][2]langid.Language{},
	}
	if _, err := reg.InstallCascade("casc", "fast", "slow", cfg); err != nil {
		t.Fatal(err)
	}

	u := "http://www.nachrichten-wetter.de/zeitung/artikel"
	// Warm scratch pools before counting.
	l, err := reg.Acquire("casc")
	if err != nil {
		t.Fatal(err)
	}
	l.Engine().Classify(u)
	casc := l.Engine().Predictor().(*cascade.Cascade)
	l.Release()

	allocs := testing.AllocsPerRun(200, func() {
		l, err := reg.Acquire("casc")
		if err != nil {
			t.Fatal(err)
		}
		l.Engine().Classify(u)
		l.Release()
	})
	if allocs != 0 {
		t.Fatalf("non-escalating cascade classify allocates %v/op, want 0", allocs)
	}
	if esc := casc.TierStats().Escalations(); esc != 0 {
		t.Fatalf("allocation run escalated %d times; the measurement missed the fast path", esc)
	}
}

// TestCascadeSlowTierSwapStress extends the drain harness to cascade
// tiers: hammer goroutines classify through an always-escalating
// cascade while the slow-tier slot is swapped between two models.
// Every answer must be exactly one epoch's, no classification may
// fail, and every retired slow-tier version's closer must run exactly
// once, never while a cascade classification scores it — the
// double-close and torn-epoch failure modes -race would catch.
func TestCascadeSlowTierSwapStress(t *testing.T) {
	snapA := compiled.FromSystem(trainSystem(t, 31))
	snapB := compiled.FromSystem(trainSystem(t, 41))
	fastSnap := compiled.FromSystem(trainSystem(t, 51))

	probes := cascadeProbes[:5]
	expA := make(map[string][langid.NumLanguages]float64, len(probes))
	expB := make(map[string][langid.NumLanguages]float64, len(probes))
	differ := false
	for _, u := range probes {
		expA[u], expB[u] = snapA.Scores(u), snapB.Scores(u)
		differ = differ || expA[u] != expB[u]
	}
	if !differ {
		t.Fatal("slow-tier models agree on every probe; swaps would be undetectable")
	}

	const hammers = 8
	var (
		stop     atomic.Bool
		requests atomic.Int64
		failures atomic.Int64
		firstErr atomic.Value
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}

	reg := New(Options{Engine: serve.Options{Workers: 4, CacheCapacity: 256}})
	if _, err := reg.Install("fast", fastSnap, fastSnap.Describe(), fastSnap.Mode()); err != nil {
		t.Fatal(err)
	}
	var slowCloses atomic.Int64
	if _, err := installTracked(reg, "slow", snapA, &slowCloses, fail); err != nil {
		t.Fatal(err)
	}
	// +Inf threshold: every classification pins the slow tier, so each
	// request races the swap loop on both tiers at once.
	if _, err := reg.InstallCascade("casc", "fast", "slow", cascade.Config{Threshold: math.Inf(1)}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				u := probes[(i+g)%len(probes)]
				l, err := reg.Acquire("casc")
				if err != nil {
					fail("Acquire failed mid-swap: %v", err)
					return
				}
				got := l.Engine().Classify(u).Scores()
				l.Release()
				requests.Add(1)
				if got != expA[u] && got != expB[u] {
					fail("half-swapped cascade result for %s", u)
					return
				}
			}
		}(g)
	}

	const rounds = 60
	for c := 0; c < rounds; c++ {
		// Wait for a classification between swaps: an install starts no
		// goroutines, so the whole loop could otherwise end before any
		// hammer has run.
		for seen := requests.Load(); requests.Load() == seen && failures.Load() == 0; {
			runtime.Gosched()
		}
		next := snapB
		if c%2 == 1 {
			next = snapA
		}
		if _, err := installTracked(reg, "slow", next, &slowCloses, fail); err != nil {
			t.Fatalf("round %d: %v", c, err)
		}
	}

	stop.Store(true)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d failures in %d requests (first: %v)", failures.Load(), requests.Load(), firstErr.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("hammer goroutines classified nothing; the stress proved nothing")
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if got := slowCloses.Load(); got != rounds+1 {
		t.Errorf("after Close %d of %d slow-tier versions ran their closer", got, rounds+1)
	}
	if failures.Load() > 0 {
		t.Fatalf("closer misuse: %v", firstErr.Load())
	}
}

// TestCascadeRetargetsOnTierSwap pins the by-name resolution contract:
// installing a new model into a tier slot retargets the cascade on the
// very next classification, no cascade reinstall needed.
func TestCascadeRetargetsOnTierSwap(t *testing.T) {
	snapA := compiled.FromSystem(trainSystem(t, 31))
	snapB := compiled.FromSystem(trainSystem(t, 41))
	fastSnap := compiled.FromSystem(trainSystem(t, 51))
	reg := New(Options{})
	defer reg.Close()
	if _, err := reg.Install("fast", fastSnap, fastSnap.Describe(), fastSnap.Mode()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("slow", snapA, snapA.Describe(), snapA.Mode()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.InstallCascade("casc", "fast", "slow", cascade.Config{Threshold: math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	var u string
	for _, p := range cascadeProbes {
		if snapA.Scores(p) != snapB.Scores(p) {
			u = p
			break
		}
	}
	if u == "" {
		t.Fatal("no distinguishing probe")
	}
	l, err := reg.Acquire("casc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if got := l.Engine().Classify(u).Scores(); got != snapA.Scores(u) {
		t.Fatalf("before swap: %v, want slow tier A's answer", got)
	}
	if _, err := reg.Install("slow", snapB, snapB.Describe(), snapB.Mode()); err != nil {
		t.Fatal(err)
	}
	if got := l.Engine().Classify(u).Scores(); got != snapB.Scores(u) {
		t.Fatalf("after swap: %v, want slow tier B's answer", got)
	}
}
