package urllangid_test

// The zero-allocation contract of the redesigned API: Snapshot-backed
// Classify, and every Result accessor short of the slice-expanding
// ones, must not touch the heap. This is the library-embedding
// equivalent of internal/compiled's TestScoresZeroAlloc — measured
// through the public surface, where an accidental interface conversion
// or escaping composite literal would reintroduce allocations the
// internal test cannot see.

import (
	"slices"
	"testing"

	"urllangid"
	"urllangid/internal/urlx"
)

func TestClassifyResultZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	clf, err := urllangid.Train(urllangid.Options{Seed: 44}, trainSamples(t, 400))
	if err != nil {
		t.Fatal(err)
	}
	snap := clf.Compile()
	if !slices.Contains(nativeModes, snap.Mode()) {
		t.Fatalf("NB/word compiled to mode %q, not a native form", snap.Mode())
	}
	urls := map[string]string{
		"normalized": urlx.Normalize("http://www.nachrichten-wetter.de/zeitung/artikel7.html"),
		"scheme":     "http://www.nachrichten-wetter.de/zeitung/artikel7.html",
		"rewrite":    "HTTP://WWW.Nachrichten-Wetter.DE/Zeitung/Artikel%37.html",
	}
	var sink urllangid.Result
	var sinkBool bool
	for label, u := range urls {
		if avg := testing.AllocsPerRun(200, func() {
			sink = snap.Classify(u)
		}); avg > 0 {
			t.Errorf("%s: Snapshot.Classify allocates %.1f/op, want 0", label, avg)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		r := snap.Classify(urls["scheme"])
		sinkBool = r.Is(urllangid.German)
		_, _, sinkBool = r.Best()
		sinkBool = sinkBool || r.Score(urllangid.French) > 0
		_ = r.Scores()
		_ = r.Claims()
	}); avg > 0 {
		t.Errorf("Result accessors allocate %.1f/op, want 0", avg)
	}
	_, _ = sink, sinkBool
}
