package urllangid_test

import (
	"bytes"
	"slices"
	"testing"

	"urllangid"
	"urllangid/internal/datagen"
)

// nativeModes are the compiled forms Snapshot.Mode names. Every
// configuration compiles to one of them; there is no fallback path.
var nativeModes = []string{"linear", "custom", "dtree", "knn", "tld"}

func trainSamples(t *testing.T, perLang int) []urllangid.Sample {
	t.Helper()
	ds := datagen.Generate(datagen.Config{
		Kind: datagen.ODP, Seed: 21, TrainPerLang: perLang, TestPerLang: 1,
	})
	return ds.Train
}

func TestTrainDefaultIsNBWords(t *testing.T) {
	clf, err := urllangid.Train(urllangid.Options{}, trainSamples(t, 1200))
	if err != nil {
		t.Fatal(err)
	}
	if got := clf.Describe(); got != "NB/word" {
		t.Errorf("default Describe = %q, want NB/word", got)
	}
}

func TestClassifierEndToEnd(t *testing.T) {
	clf, err := urllangid.Train(urllangid.Options{Seed: 1}, trainSamples(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]urllangid.Language{
		"http://www.nachrichten-wetter.de/zeitung": urllangid.German,
		"http://www.recherche-produits.fr/annonce": urllangid.French,
		"http://www.noticias-tienda.es/precios":    urllangid.Spanish,
		"http://www.notizie-azienda.it/prodotti":   urllangid.Italian,
	}
	for u, want := range cases {
		r := clf.Classify(u)
		if !r.Is(want) {
			t.Errorf("Is(%s, %v) = false", u, want)
		}
		best, _, claimed := r.Best()
		if !claimed || best != want {
			t.Errorf("Best(%s) = %v (claimed=%v), want %v", u, best, claimed, want)
		}
	}
}

func TestPredictionsComplete(t *testing.T) {
	clf, err := urllangid.Train(urllangid.Options{Seed: 2}, trainSamples(t, 600))
	if err != nil {
		t.Fatal(err)
	}
	preds := clf.Classify("http://www.example.com/page").Predictions()
	if len(preds) != urllangid.NumLanguages {
		t.Fatalf("got %d predictions", len(preds))
	}
	for i, p := range preds {
		if p.Lang != urllangid.Languages()[i] {
			t.Error("predictions out of canonical order")
		}
		if p.Positive != (p.Score >= 0) {
			t.Error("Positive inconsistent with Score")
		}
	}
}

func TestSaveLoad(t *testing.T) {
	clf, err := urllangid.Train(urllangid.Options{Seed: 3}, trainSamples(t, 800))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := urllangid.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	u := "http://www.wetter-bericht.de/heute"
	a, b := clf.Classify(u).Predictions(), loaded.Classify(u).Predictions()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("predictions differ after Save/Load")
		}
	}
}

func TestCompileSnapshotMatchesClassifier(t *testing.T) {
	clf, err := urllangid.Train(urllangid.Options{Seed: 6}, trainSamples(t, 800))
	if err != nil {
		t.Fatal(err)
	}
	snap := clf.Compile()
	if !slices.Contains(nativeModes, snap.Mode()) {
		t.Fatalf("NB/word compiled to mode %q, not a native form", snap.Mode())
	}
	if snap.Describe() != clf.Describe() {
		t.Errorf("Describe %q vs %q", snap.Describe(), clf.Describe())
	}
	urls := []string{
		"http://www.nachrichten-wetter.de/zeitung",
		"http://www.recherche-produits.fr/annonce",
		"http://www.example.com/page",
		"", "not a url", "http://user:pw@host.es:9/x%20y",
	}
	for _, u := range urls {
		want, got := clf.Classify(u), snap.Classify(u)
		a, b := want.Predictions(), got.Predictions()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("snapshot predictions differ on %q: %+v vs %+v", u, a[i], b[i])
			}
		}
		wantLang, wantScore, wantAny := want.Best()
		gotLang, gotScore, gotAny := got.Best()
		if wantLang != gotLang || wantScore != gotScore || wantAny != gotAny {
			t.Fatalf("snapshot Best differs on %q", u)
		}
		for _, l := range urllangid.Languages() {
			if want.Is(l) != got.Is(l) {
				t.Fatalf("snapshot Is differs on %q/%v", u, l)
			}
		}
	}
}

func TestSnapshotSaveLoad(t *testing.T) {
	clf, err := urllangid.Train(urllangid.Options{Seed: 7}, trainSamples(t, 600))
	if err != nil {
		t.Fatal(err)
	}
	snap := clf.Compile()
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := urllangid.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	u := "http://www.wetter-bericht.de/heute"
	a, b := snap.Classify(u).Predictions(), loaded.Classify(u).Predictions()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("snapshot predictions differ after Save/LoadSnapshot")
		}
	}
	if _, err := urllangid.LoadSnapshot(bytes.NewReader([]byte{9, 9})); err == nil {
		t.Error("LoadSnapshot accepted garbage")
	}
}

func TestPredictionsBatch(t *testing.T) {
	clf, err := urllangid.Train(urllangid.Options{Seed: 8}, trainSamples(t, 600))
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, 300)
	for i := range urls {
		urls[i] = "http://www.seite-" + string(rune('a'+i%26)) + ".de/artikel"
	}
	urls = append(urls, "", "garbage url")
	batch := clf.ClassifyBatch(urls)
	if len(batch) != len(urls) {
		t.Fatalf("batch returned %d results for %d urls", len(batch), len(urls))
	}
	for i, u := range urls {
		if batch[i] != clf.Classify(u) {
			t.Fatalf("batch[%d] differs from Classify(%q)", i, u)
		}
	}
	// Snapshot batching must agree too.
	snapBatch := clf.Compile().ClassifyBatch(urls)
	for i := range urls {
		if snapBatch[i] != batch[i] {
			t.Fatalf("snapshot batch differs at %d", i)
		}
	}
	if got := clf.ClassifyBatch(nil); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := urllangid.Load(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("Load accepted garbage")
	}
}

func TestBaselineWithoutTraining(t *testing.T) {
	clf, err := urllangid.Train(urllangid.Options{Algorithm: urllangid.CcTLD}, nil)
	if err != nil {
		t.Fatal(err)
	}
	langs := clf.Classify("http://www.example.it/pagina").Languages()
	if len(langs) != 1 || langs[0] != urllangid.Italian {
		t.Errorf("ccTLD .it = %v", langs)
	}
	if langs := clf.Classify("http://example.com").Languages(); len(langs) != 0 {
		t.Errorf("plain ccTLD claimed .com: %v", langs)
	}
}

func TestAllOptionCombinations(t *testing.T) {
	samples := trainSamples(t, 400)
	feats := []urllangid.FeatureSet{
		urllangid.WordFeatures, urllangid.TrigramFeatures,
		urllangid.CustomFeatures, urllangid.CustomFeaturesAll,
	}
	algos := []urllangid.Algorithm{
		urllangid.NaiveBayes, urllangid.RelativeEntropy, urllangid.MaximumEntropy,
	}
	for _, f := range feats {
		for _, a := range algos {
			opts := urllangid.Options{Features: f, Algorithm: a, MaxEntIterations: 5, Seed: 4}
			clf, err := urllangid.Train(opts, samples)
			if err != nil {
				t.Fatalf("%v/%v: %v", a, f, err)
			}
			_ = clf.Classify("http://www.beispiel.de/seite").Languages()
		}
	}
}

func TestParseLanguage(t *testing.T) {
	l, err := urllangid.ParseLanguage("it")
	if err != nil || l != urllangid.Italian {
		t.Errorf("ParseLanguage(it) = %v, %v", l, err)
	}
	if _, err := urllangid.ParseLanguage("xx"); err == nil {
		t.Error("ParseLanguage(xx) succeeded")
	}
}

func TestFeatureSetAndAlgorithmStrings(t *testing.T) {
	if urllangid.WordFeatures.String() != "word" {
		t.Error("WordFeatures name")
	}
	if urllangid.NaiveBayes.String() != "NB" || urllangid.CcTLDPlus.String() != "ccTLD+" {
		t.Error("Algorithm names")
	}
}

func TestTrainOnContentOption(t *testing.T) {
	ds := datagen.Generate(datagen.Config{
		Kind: datagen.ODP, Seed: 23, TrainPerLang: 300, TestPerLang: 1, WithContent: true,
	})
	clf, err := urllangid.Train(urllangid.Options{TrainOnContent: true, Seed: 5}, ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	_ = clf.Classify("http://www.wetter.de").Languages()
}
