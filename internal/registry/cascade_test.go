package registry

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	// A failed install leaves no empty slot behind.
	if names := reg.Names(); len(names) != 2 {
		t.Fatalf("failed installs left slots %v, want only fast and slow", names)
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
	// Nor may a tier of a live cascade become a cascade.
	if _, err := reg.InstallCascade("slow", "fast", "casc", cascade.Config{}); err == nil ||
		!strings.Contains(err.Error(), "do not nest") {
		t.Fatalf("a cascade's tier became a cascade: %v", err)
	}
	if names := reg.Names(); len(names) != 3 {
		t.Fatalf("slots %v after the nesting checks, want fast, slow and casc", names)
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
				// The engine composes the same scores into a Result.
				if got := l.Engine().Classify(u); got.Scores() != want {
					t.Fatalf("%q: engine Classify drifted from Scores", u)
				}
			}
			if !sawFast || !sawSlow {
				t.Fatalf("probes exercised only one route (fast=%v slow=%v); equivalence proved nothing", sawFast, sawSlow)
			}
			st := casc.TierStats()
			// Scores and the engine's Classify per probe: every probe
			// counted twice.
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
// full request path — acquire the cascade, score the fast tier,
// decide, release — performs zero heap allocations when the fast tier
// answers.
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
	// +Inf threshold: every classification scores the slow tier, so each
	// request races the swap loop and the cascade rebuilds it causes.
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

// TestCascadeRetargetsOnTierSwap pins how a tier swap reaches a
// cascade: a cascade lease taken before the swap keeps scoring the old
// tier version, the next lease scores the new one, and the old tier
// version's closer runs once that first lease is released.
func TestCascadeRetargetsOnTierSwap(t *testing.T) {
	snapA := compiled.FromSystem(trainSystem(t, 31))
	snapB := compiled.FromSystem(trainSystem(t, 41))
	fastSnap := compiled.FromSystem(trainSystem(t, 51))
	reg := New(Options{})
	defer reg.Close()
	if _, err := reg.Install("fast", fastSnap, fastSnap.Describe(), fastSnap.Mode()); err != nil {
		t.Fatal(err)
	}
	var slowCloses atomic.Int64
	fail := func(format string, args ...any) { t.Errorf(format, args...) }
	if _, err := installTracked(reg, "slow", snapA, &slowCloses, fail); err != nil {
		t.Fatal(err)
	}
	first, err := reg.InstallCascade("casc", "fast", "slow", cascade.Config{Threshold: math.Inf(1)})
	if err != nil {
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
	before, err := reg.Acquire("casc")
	if err != nil {
		t.Fatal(err)
	}
	if got := before.Engine().Classify(u).Scores(); got != snapA.Scores(u) {
		t.Fatalf("before swap: %v, want slow tier A's answer", got)
	}
	if _, err := installTracked(reg, "slow", snapB, &slowCloses, fail); err != nil {
		t.Fatal(err)
	}
	if got := before.Engine().Classify(u).Scores(); got != snapA.Scores(u) {
		t.Fatalf("lease from before the swap: %v, want slow tier A's answer", got)
	}
	after, err := reg.Acquire("casc")
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Engine().Classify(u).Scores(); got != snapB.Scores(u) {
		t.Fatalf("lease from after the swap: %v, want slow tier B's answer", got)
	}
	if v := after.Info().Version; v != first.Version+1 {
		t.Fatalf("cascade version after the tier swap = %d, want %d", v, first.Version+1)
	}
	if esc := after.Engine().Predictor().(*cascade.Cascade).TierStats().Escalations(); esc != 1 {
		t.Fatalf("new cascade version counted %d escalations, want its own 1", esc)
	}
	after.Release()
	if n := slowCloses.Load(); n != 0 {
		t.Fatalf("retired slow tier closed %d times while a cascade lease held it", n)
	}
	before.Release()
	if n := slowCloses.Load(); n != 1 {
		t.Fatalf("retired slow tier closed %d times after its last cascade lease, want 1", n)
	}
}

// TestCascadeBothTierSwapStress swaps the fast and the slow tier from
// two goroutines at once while hammers classify through the cascade.
// Every answer must be that of one pair of tier versions; once the
// swaps stop, the cascade must answer with the last version of each
// tier, which holds only if the last rebuild sees the last swap of
// either tier; and after Close every tier version's closer must have
// run exactly once.
func TestCascadeBothTierSwapStress(t *testing.T) {
	fastModels := [2]*compiled.Snapshot{
		compiled.FromSystem(trainSystem(t, 51)),
		compiled.FromSystem(trainSystem(t, 61)),
	}
	slowModels := [2]*compiled.Snapshot{
		compiled.FromSystem(trainSystem(t, 31)),
		compiled.FromSystem(trainSystem(t, 41)),
	}
	probes := cascadeProbes
	// A mid-range threshold on the first fast model's margins routes
	// some probes to each tier, so the answers depend on both.
	margins := make([]float64, 0, len(probes))
	for _, u := range probes {
		margins = append(margins, fastModels[0].Classify(u).Margin())
	}
	cfg := cascade.Config{Threshold: medianOf(margins)}
	// want[f][s][u] is the answer of the cascade over fast version f
	// and slow version s.
	var want [2][2]map[string][langid.NumLanguages]float64
	for f := range fastModels {
		for sl := range slowModels {
			ref := cascade.New(fastModels[f], slowModels[sl], cfg)
			want[f][sl] = make(map[string][langid.NumLanguages]float64, len(probes))
			for _, u := range probes {
				want[f][sl][u] = ref.Scores(u)
			}
		}
	}
	// The last versions installed are fastModels[1] and slowModels[1];
	// each other pair must answer some probe differently, or the final
	// check proves nothing.
	for _, p := range [][2]int{{0, 0}, {0, 1}, {1, 0}} {
		same := true
		for _, u := range probes {
			same = same && want[p[0]][p[1]][u] == want[1][1][u]
		}
		if same {
			t.Fatalf("tier pair %v answers every probe as the final pair", p)
		}
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

	reg := New(Options{Engine: serve.Options{Workers: 2}})
	var fastCloses, slowCloses atomic.Int64
	if _, err := installTracked(reg, "fast", fastModels[0], &fastCloses, fail); err != nil {
		t.Fatal(err)
	}
	if _, err := installTracked(reg, "slow", slowModels[0], &slowCloses, fail); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.InstallCascade("casc", "fast", "slow", cfg); err != nil {
		t.Fatal(err)
	}

	var hammering sync.WaitGroup
	for g := 0; g < hammers; g++ {
		hammering.Add(1)
		go func(g int) {
			defer hammering.Done()
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
				if got != want[0][0][u] && got != want[0][1][u] && got != want[1][0][u] && got != want[1][1][u] {
					fail("cascade answer for %s is no tier pair's", u)
					return
				}
			}
		}(g)
	}

	// Each swapper alternates its tier's two models, an odd number of
	// swaps, so it ends on version 1 of them. It waits for a
	// classification between swaps, since an install starts no
	// goroutine and the loops could otherwise end before any hammer has
	// run.
	const swaps = 59
	var swapping sync.WaitGroup
	for _, tier := range []struct {
		name   string
		models *[2]*compiled.Snapshot
		closes *atomic.Int64
	}{{"fast", &fastModels, &fastCloses}, {"slow", &slowModels, &slowCloses}} {
		swapping.Add(1)
		go func() {
			defer swapping.Done()
			for c := 1; c <= swaps; c++ {
				for seen := requests.Load(); requests.Load() == seen && failures.Load() == 0; {
					runtime.Gosched()
				}
				if _, err := installTracked(reg, tier.name, tier.models[c%2], tier.closes, fail); err != nil {
					fail("%s swap %d: %v", tier.name, c, err)
					return
				}
			}
		}()
	}
	swapping.Wait()
	stop.Store(true)
	hammering.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d failures in %d requests (first: %v)", failures.Load(), requests.Load(), firstErr.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("hammer goroutines classified nothing; the stress proved nothing")
	}

	l, err := reg.Acquire("casc")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range probes {
		if got := l.Engine().Classify(u).Scores(); got != want[1][1][u] {
			t.Errorf("after the swaps, %s: the cascade does not answer with the last tier versions", u)
		}
	}
	l.Release()

	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	const versions = swaps + 1
	if got := fastCloses.Load(); got != versions {
		t.Errorf("after Close %d of %d fast-tier versions ran their closer", got, versions)
	}
	if got := slowCloses.Load(); got != versions {
		t.Errorf("after Close %d of %d slow-tier versions ran their closer", got, versions)
	}
	if failures.Load() > 0 {
		t.Fatalf("closer misuse: %v", firstErr.Load())
	}
}

// TestCascadeReinstallDuringTierSwaps re-installs a cascade in a loop
// while two loops swap its tiers and three goroutines lease the cascade
// and both tiers. Every tier swap rebuilds the cascade, which holds the
// cascade slot's mu while its tier leases take Registry.mu (a read lock,
// inside Acquire). An install that took the slot's mu under Registry.mu
// could then deadlock with the rebuild (row K1′ of DESIGN.md §6), so a
// watchdog fails the test when none of the three loops finishes a
// round for ten seconds.
func TestCascadeReinstallDuringTierSwaps(t *testing.T) {
	fastModels := [2]*compiled.Snapshot{
		compiled.FromSystem(trainSystem(t, 51)),
		compiled.FromSystem(trainSystem(t, 61)),
	}
	slowModels := [2]*compiled.Snapshot{
		compiled.FromSystem(trainSystem(t, 31)),
		compiled.FromSystem(trainSystem(t, 41)),
	}
	reg := New(Options{Engine: serve.Options{Workers: 1}})
	install := func(name string, snap *compiled.Snapshot) error {
		_, err := reg.Install(name, snap, snap.Describe(), snap.Mode())
		return err
	}
	reinstall := func() error {
		_, err := reg.InstallCascade("casc", "fast", "slow", cascade.Config{})
		return err
	}
	if err := install("fast", fastModels[0]); err != nil {
		t.Fatal(err)
	}
	if err := install("slow", slowModels[0]); err != nil {
		t.Fatal(err)
	}
	if err := reinstall(); err != nil {
		t.Fatal(err)
	}

	var (
		stop     atomic.Bool
		rounds   atomic.Int64 // rounds the three loops have finished
		failures atomic.Int64
		firstErr atomic.Value
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	var leasing sync.WaitGroup
	for _, name := range []string{"casc", "fast", "slow"} {
		leasing.Add(1)
		go func() {
			defer leasing.Done()
			for i := 0; !stop.Load(); i++ {
				l, err := reg.Acquire(name)
				if err != nil {
					fail("Acquire(%q): %v", name, err)
					return
				}
				l.Engine().Classify(cascadeProbes[i%len(cascadeProbes)])
				l.Release()
			}
		}()
	}

	const perLoop = 300
	var looping sync.WaitGroup
	for _, loop := range []struct {
		name string
		do   func(i int) error
	}{
		{"cascade install", func(int) error { return reinstall() }},
		{"fast swap", func(i int) error { return install("fast", fastModels[i%2]) }},
		{"slow swap", func(i int) error { return install("slow", slowModels[i%2]) }},
	} {
		looping.Add(1)
		go func() {
			defer looping.Done()
			for i := 1; i <= perLoop; i++ {
				if err := loop.do(i); err != nil {
					fail("%s %d: %v", loop.name, i, err)
					return
				}
				rounds.Add(1)
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		looping.Wait()
		close(finished)
	}()

	const stall = 10 * time.Second
	watchdog := time.NewTicker(stall)
	defer watchdog.Stop()
	for last, done := int64(0), false; !done; {
		select {
		case <-finished:
			done = true
		case <-watchdog.C:
			now := rounds.Load()
			if now == last {
				stop.Store(true)
				// Close would block on the same locks, so the stalled
				// goroutines are left as they are.
				buf := make([]byte, 64<<10)
				t.Fatalf("no install or swap finished in %v after %d of %d rounds: deadlock\n%s",
					stall, now, 3*perLoop, buf[:runtime.Stack(buf, true)])
			}
			last = now
		}
	}
	stop.Store(true)
	leasing.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d failures (first: %v)", failures.Load(), firstErr.Load())
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}
