package urllangid_test

// The golden equivalence matrix: for every Algorithm × FeatureSet that
// trains from the tiny fixture corpus (plus the training-free
// baselines), the Classifier, its compiled Snapshot, and both after a
// Save/Open round-trip classify bit-identically, each Result's decision
// bits agree with its score signs, and ClassifyBatch agrees with
// Classify.

import (
	"bytes"
	"testing"

	"urllangid"
	"urllangid/internal/datagen"
)

// equivalenceURLs mixes fixture-like inputs with the normalizer's edge
// cases; score paths must agree on all of them.
var equivalenceURLs = []string{
	"http://www.nachrichten-wetter.de/zeitung",
	"http://www.recherche-produits.fr/annonce",
	"http://www.noticias-tienda.es/precios",
	"http://www.notizie-azienda.it/prodotti",
	"http://www.weather-report.com/forecast.html",
	"HTTP://WWW.Wetter-Bericht.DE/Heute%2Ehtml",
	"http://user:pw@host.es:9/x%20y",
	"http://[2001:db8::1]:8080/chemin",
	"//scheme-less.fr/page",
	"example.fr/go?u=http://example.de/seite",
	"",
	"not a url",
	"::::",
}

// assertResultsConsistent checks, on one model, that every Result's
// decision bits agree with its score signs and that ClassifyBatch
// returns exactly the per-URL Classify results.
func assertResultsConsistent(t *testing.T, label string, m urllangid.Model) {
	t.Helper()
	for _, u := range equivalenceURLs {
		r := m.Classify(u)
		for li, s := range r.Scores() {
			if r.Is(urllangid.Language(li)) != (s >= 0) {
				t.Fatalf("%s: %q decision bit disagrees with score %v", label, u, s)
			}
		}
	}
	batch := m.ClassifyBatch(equivalenceURLs)
	if len(batch) != len(equivalenceURLs) {
		t.Fatalf("%s: batch length %d", label, len(batch))
	}
	for i, u := range equivalenceURLs {
		if batch[i] != m.Classify(u) {
			t.Fatalf("%s: ClassifyBatch[%d] differs from Classify(%q)", label, i, u)
		}
	}
}

// assertModelsIdentical pins two models to bit-identical Classify
// output on the equivalence URL set.
func assertModelsIdentical(t *testing.T, label string, a, b urllangid.Model) {
	t.Helper()
	for _, u := range equivalenceURLs {
		if ra, rb := a.Classify(u), b.Classify(u); ra != rb {
			t.Fatalf("%s: Classify(%q) diverged: %v vs %v", label, u, ra.Scores(), rb.Scores())
		}
	}
}

func TestGoldenEquivalenceMatrix(t *testing.T) {
	ds := datagen.Generate(datagen.Config{
		Kind: datagen.ODP, Seed: 21, TrainPerLang: 300, TestPerLang: 1,
	})
	samples := ds.Train

	feats := map[string]urllangid.FeatureSet{
		"word":     urllangid.WordFeatures,
		"trigram":  urllangid.TrigramFeatures,
		"custom":   urllangid.CustomFeatures,
		"custom74": urllangid.CustomFeaturesAll,
	}
	algos := map[string]urllangid.Algorithm{
		"NB":  urllangid.NaiveBayes,
		"RE":  urllangid.RelativeEntropy,
		"ME":  urllangid.MaximumEntropy,
		"DT":  urllangid.DecisionTree,
		"kNN": urllangid.KNN,
	}
	// Every trainable configuration compiles natively into one of these
	// modes; nothing falls back to wrapping the original models.
	wantMode := func(algo urllangid.Algorithm, feat urllangid.FeatureSet) string {
		custom := feat == urllangid.CustomFeatures || feat == urllangid.CustomFeaturesAll
		switch algo {
		case urllangid.DecisionTree:
			return "dtree"
		case urllangid.KNN:
			return "knn"
		default:
			if custom {
				return "custom"
			}
			return "linear"
		}
	}
	for an, algo := range algos {
		for fn, feat := range feats {
			name := an + "/" + fn
			opts := urllangid.Options{
				Features: feat, Algorithm: algo, Seed: 4, MaxEntIterations: 3,
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				clf, err := urllangid.Train(opts, samples)
				if err != nil {
					t.Fatalf("%s failed to train from the fixture corpus: %v", name, err)
				}
				snap := clf.Compile()
				if !snap.Compiled() {
					t.Fatalf("%s did not compile natively", name)
				}
				if want := wantMode(algo, feat); snap.Mode() != want {
					t.Fatalf("%s compiled to mode %q, want %q", name, snap.Mode(), want)
				}
				assertResultsConsistent(t, name+"/classifier", clf)
				assertResultsConsistent(t, name+"/snapshot", snap)
				assertModelsIdentical(t, name+"/classifier-vs-snapshot", clf, snap)
				assertSurvivesSaveOpen(t, name, clf, snap)
			})
		}
	}
	for _, baseline := range []urllangid.Algorithm{urllangid.CcTLD, urllangid.CcTLDPlus} {
		clf, err := urllangid.Train(urllangid.Options{Algorithm: baseline}, nil)
		if err != nil {
			t.Fatal(err)
		}
		label := clf.Describe()
		assertResultsConsistent(t, label+"/classifier", clf)
		snap := clf.Compile()
		if !snap.Compiled() || snap.Mode() != "tld" {
			t.Fatalf("%s compiled = %v mode %q, want the tld mode", label, snap.Compiled(), snap.Mode())
		}
		assertResultsConsistent(t, label+"/snapshot", snap)
		assertModelsIdentical(t, label+"/classifier-vs-snapshot", clf, snap)
		assertSurvivesSaveOpen(t, label, clf, snap)
	}
}

// assertSurvivesSaveOpen pins both model kinds across the wire: the
// reloaded classifier and snapshot must classify bit-identically to the
// in-memory originals, and the snapshot must come back compiled into
// the same mode.
func assertSurvivesSaveOpen(t *testing.T, label string, clf *urllangid.Classifier, snap *urllangid.Snapshot) {
	t.Helper()
	var cbuf bytes.Buffer
	if err := clf.Save(&cbuf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := urllangid.Open(&cbuf)
	if err != nil {
		t.Fatal(err)
	}
	assertModelsIdentical(t, label+"/classifier-vs-opened", clf, reloaded)

	var sbuf bytes.Buffer
	if err := snap.Save(&sbuf); err != nil {
		t.Fatal(err)
	}
	reSnap, err := urllangid.LoadSnapshot(&sbuf)
	if err != nil {
		t.Fatal(err)
	}
	if !reSnap.Compiled() || reSnap.Mode() != snap.Mode() {
		t.Fatalf("%s: snapshot mode %q became %q across Save/Open", label, snap.Mode(), reSnap.Mode())
	}
	assertModelsIdentical(t, label+"/snapshot-vs-opened", snap, reSnap)
}

// TestGoldenEquivalenceSurvivesSaveOpen spot-checks Open's kind
// dispatch on a larger corpus than the matrix fixture: a packed linear
// snapshot and a flattened decision-tree snapshot both come back
// bit-identical through the generic Open entry point. (The full
// per-configuration round-trip coverage lives inside
// TestGoldenEquivalenceMatrix.)
func TestGoldenEquivalenceSurvivesSaveOpen(t *testing.T) {
	samples := trainSamples(t, 300)
	for _, opts := range []urllangid.Options{
		{Seed: 9}, // NB/word — packed linear snapshot
		{Seed: 9, Algorithm: urllangid.DecisionTree, // DT/custom — flattened-tree snapshot
			Features: urllangid.CustomFeatures},
	} {
		clf, err := urllangid.Train(opts, samples)
		if err != nil {
			t.Fatal(err)
		}
		var cbuf bytes.Buffer
		if err := clf.Save(&cbuf); err != nil {
			t.Fatal(err)
		}
		reloaded, err := urllangid.Open(&cbuf)
		if err != nil {
			t.Fatal(err)
		}
		assertModelsIdentical(t, clf.Describe()+"/classifier-vs-opened", clf, reloaded)

		snap := clf.Compile()
		var sbuf bytes.Buffer
		if err := snap.Save(&sbuf); err != nil {
			t.Fatal(err)
		}
		reSnap, err := urllangid.Open(&sbuf)
		if err != nil {
			t.Fatal(err)
		}
		assertModelsIdentical(t, clf.Describe()+"/snapshot-vs-opened", snap, reSnap)
	}
}
