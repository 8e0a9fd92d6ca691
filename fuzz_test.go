package urllangid_test

// FuzzSnapshotEquivalence is the universal-compilation differential
// harness. It trains one representative configuration per compiled
// family (linear, custom, dtree, knn, tld), plus one per finalisation
// of the token families' ID bitmap: NB/word, ME/word, NB/trigram and
// RE/trigram read the bitmap straight into their scores, and DT/word
// and kNN/word read it out as a vector. Each trained Classifier and its
// compiled Snapshot must classify every input, however malformed,
// bit-identically. This is the fuzzing arm of the golden equivalence
// matrix, wired into `make fuzz-smoke` alongside the urlx targets.

import (
	"bytes"
	"sync"
	"testing"

	"urllangid"
	"urllangid/internal/datagen"
)

// fuzzFamilies names one configuration per compiled mode, plus the
// trigram kernel and the token finalisations (ME's bias, RE's mass
// division and empty-vector answer, the decision tree's vector
// readout), with the mode each must compile to. kNN keeps the reference
// sets small through the corpus size, and ME trains four iterations, so
// per-input scoring and set-up stay fuzz-friendly.
var fuzzFamilies = []struct {
	name, mode string
	opts       urllangid.Options
}{
	{"linear", "linear", urllangid.Options{Seed: 3}},
	{"trigram", "linear", urllangid.Options{Seed: 3, Features: urllangid.TrigramFeatures}},
	{"maxent-word", "linear", urllangid.Options{Seed: 3, Algorithm: urllangid.MaximumEntropy, MaxEntIterations: 4}},
	{"relent-trigram", "linear", urllangid.Options{Seed: 3, Algorithm: urllangid.RelativeEntropy, Features: urllangid.TrigramFeatures}},
	{"custom", "custom", urllangid.Options{Seed: 3, Features: urllangid.CustomFeatures}},
	{"dtree", "dtree", urllangid.Options{Seed: 3, Algorithm: urllangid.DecisionTree, Features: urllangid.CustomFeatures}},
	{"dtree-word", "dtree", urllangid.Options{Seed: 3, Algorithm: urllangid.DecisionTree}},
	{"knn", "knn", urllangid.Options{Seed: 3, Algorithm: urllangid.KNN}},
	{"tld", "tld", urllangid.Options{Algorithm: urllangid.CcTLDPlus}},
}

type fuzzModel struct {
	name string
	clf  *urllangid.Classifier
	snap *urllangid.Snapshot
	// reloaded is snap after a Save/Open round trip, so the fuzz also
	// drives the wire decode path of every family.
	reloaded *urllangid.Snapshot
}

var (
	fuzzModelsOnce sync.Once
	fuzzModels     []fuzzModel
)

// buildFuzzModels trains each family once per process from a small
// fixture corpus.
func buildFuzzModels(f *testing.F) []fuzzModel {
	f.Helper()
	fuzzModelsOnce.Do(func() {
		ds := datagen.Generate(datagen.Config{
			Kind: datagen.ODP, Seed: 23, TrainPerLang: 150, TestPerLang: 1,
		})
		for _, fam := range fuzzFamilies {
			train := ds.Train
			if fam.opts.Algorithm == urllangid.CcTLD || fam.opts.Algorithm == urllangid.CcTLDPlus {
				train = nil
			}
			clf, err := urllangid.Train(fam.opts, train)
			if err != nil {
				f.Fatalf("%s: %v", fam.name, err)
			}
			snap := clf.Compile()
			if snap.Mode() != fam.mode {
				f.Fatalf("%s compiled to mode %q", fam.name, snap.Mode())
			}
			var buf bytes.Buffer
			if err := snap.Save(&buf); err != nil {
				f.Fatalf("%s: %v", fam.name, err)
			}
			reloaded, err := urllangid.LoadSnapshot(&buf)
			if err != nil {
				f.Fatalf("%s: %v", fam.name, err)
			}
			fuzzModels = append(fuzzModels, fuzzModel{name: fam.name, clf: clf, snap: snap, reloaded: reloaded})
		}
	})
	return fuzzModels
}

func FuzzSnapshotEquivalence(f *testing.F) {
	models := buildFuzzModels(f)
	for _, seed := range []string{
		"",
		"http://www.nachrichten-wetter.de/zeitung",
		"HTTP://WWW.Wetter-Bericht.DE/Heute%2Ehtml",
		"http://user:pw@host.es:9/x%20y",
		"http://[2001:db8::1]:8080/chemin",
		"//scheme-less.fr/page",
		"example.fr/go?u=http://example.de/seite",
		"%68%74%74%70://%77ww.decoded.de/%70fad",
		"not a url",
		"::::",
		"  http://Gepolstert.DE/Pfad  ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, url string) {
		for _, m := range models {
			want := m.clf.Classify(url)
			got := m.snap.Classify(url)
			if want != got {
				t.Fatalf("%s: Classify(%q) diverged: classifier %v, snapshot %v",
					m.name, url, want.Scores(), got.Scores())
			}
			if rw := m.reloaded.Classify(url); rw != got {
				t.Fatalf("%s: Classify(%q) diverged after Save/Open: %v vs %v",
					m.name, url, rw.Scores(), got.Scores())
			}
		}
	})
}
