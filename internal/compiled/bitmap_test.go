package compiled

import (
	"math"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"urllangid/internal/core"
	"urllangid/internal/features"
	"urllangid/internal/langid"
	"urllangid/internal/ngram"
	"urllangid/internal/urlx"
)

// TestKernelsMatchRuns is the token kernels' differential test. For
// word, normal-form trigram and raw-trigram snapshots under NB, ME and
// RE, it collects each probe's IDs through the string table with the
// uncompiled walks (urlx.VisitTokens over the split normal form,
// ngram.VisitTrigrams, features.VisitRawTrigrams) and encodes them with
// features.Scratch.Runs. The scores read straight out of the kernel's
// bitmap must equal linearScores over that vector bit for bit, and the
// bitmap's vector readout must equal the vector. Besides the corpus
// probes it scores a 1 MiB URL that repeats one token, whose counts
// pass 2^16, and a URL with no vocabulary token, where RE answers
// −margin. After every readout the bitmap, its summary words and its
// counts must be zero. It runs on trained snapshots and on their
// verified flat round trips, whose weights view the file.
func TestKernelsMatchRuns(t *testing.T) {
	train, probes := corpusEnv(t)
	long := "http://www.beispiel.de/" + strings.Repeat("nachrichten/", 1<<20/len("nachrichten/"))
	empty := "~~~~"
	probes = append(probes, long, empty,
		"http://aa.bb/zz-yy/aaaa",
		"http://www.aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa.de/",
	)
	for _, algo := range []core.Algo{core.NaiveBayes, core.MaxEntropy, core.RelEntropy} {
		for _, fam := range []struct {
			kind features.Kind
			raw  bool
		}{{features.Words, false}, {features.Trigrams, false}, {features.Trigrams, true}} {
			cfg := core.Config{Algo: algo, Features: fam.kind, RawTrigrams: fam.raw, Seed: 1, MEIterations: 4}
			snap := FromSystem(trainSystem(t, cfg, train))
			loaded := reloadFlat(t, snap)
			if err := loaded.Verify(); err != nil {
				t.Fatal(err)
			}
			name := cfg.Describe()
			if fam.raw {
				name += "-raw"
			}
			t.Run(name+"/FromSystem", func(t *testing.T) { checkKernel(t, snap, probes, long, empty) })
			t.Run(name+"/LoadFlat", func(t *testing.T) { checkKernel(t, loaded, probes, long, empty) })
		}
	}
}

// checkKernel runs the differential of TestKernelsMatchRuns on one
// snapshot.
func checkKernel(t *testing.T, s *Snapshot, probes []string, long, empty string) {
	sc := s.newScratch().(*scratch)
	var ref features.Scratch
	var pad []byte
	for _, u := range probes {
		input := u
		var ids []uint32
		lookup := func(g string) {
			if id, ok := s.table.Lookup(g); ok {
				ids = append(ids, id)
			}
		}
		if s.raw {
			features.VisitRawTrigrams(u, lookup)
		} else {
			input = urlx.Normalize(u)
			tokens := lookup
			if s.kind == features.Trigrams {
				tokens = func(tok string) { ngram.VisitTrigrams(&pad, tok, lookup) }
			}
			host, path := urlx.SplitNormalized(input)
			urlx.VisitTokens(host, tokens)
			urlx.VisitTokens(path, tokens)
		}
		want := ref.Runs(ids)
		switch u {
		case long:
			if slices.Max(want.Val) <= 1<<16 {
				t.Fatalf("the long URL's largest count is %v, not past 2^16", slices.Max(want.Val))
			}
		case empty:
			if len(want.Idx) != 0 {
				t.Fatalf("%q has %d vocabulary features, want none", u, len(want.Idx))
			}
		}
		wantScores := s.linearScores(want.Idx, want.Val)

		s.collect(input, sc)
		got := s.tokenScores(sc)
		for li := range got {
			if math.Float64bits(got[li]) != math.Float64bits(wantScores[li]) {
				t.Fatalf("%.60q: language %d scores %v from the bitmap, %v from the Runs vector", u, li, got[li], wantScores[li])
			}
		}
		checkBitmapClear(t, sc, u)

		s.collect(input, sc)
		idx, val := sc.vector()
		if !slices.Equal(idx, want.Idx) || !slices.Equal(val, want.Val) {
			t.Fatalf("%.60q: the bitmap reads out %v %v, Runs gives %v %v", u, idx, val, want.Idx, want.Val)
		}
		checkBitmapClear(t, sc, u)
	}
}

// checkBitmapClear fails the test unless sc's bitmap, summary words and
// counts are all zero.
func checkBitmapClear(t *testing.T, sc *scratch, u string) {
	t.Helper()
	set := func(w uint64) bool { return w != 0 }
	if slices.ContainsFunc(sc.summary, set) || slices.ContainsFunc(sc.marks, set) ||
		slices.ContainsFunc(sc.counts, func(c uint32) bool { return c != 0 }) {
		t.Fatalf("%.60q: the readout left summary, marks or counts set", u)
	}
}

// TestPanickedScoringDropsScratch checks that a scoring call which
// panics halfway through its bitmap readout does not put its scratch
// back in the pool: the IDs it left marked would be scored with the
// next URL. A weight slice cut short after the URL's first ID makes the
// readout panic at its second; once the weights are whole again the
// same URL must score as before.
func TestPanickedScoringDropsScratch(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	train, probes := corpusEnv(t)
	snap := FromSystem(trainSystem(t, core.Config{Algo: core.NaiveBayes, Features: features.Words, Seed: 1}, train))
	sc := snap.newScratch().(*scratch)
	var u string
	var first uint32
	for _, p := range probes {
		snap.collect(urlx.Normalize(p), sc)
		if idx, _ := sc.vector(); len(idx) >= 3 {
			u, first = p, idx[0]
			break
		}
	}
	if u == "" {
		t.Fatal("no probe has three vocabulary tokens")
	}
	want := snap.Scores(u)

	whole := snap.weights
	snap.weights = whole[:(int(first)+1)*langid.NumLanguages]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("scoring with cut weights did not panic")
			}
		}()
		snap.Scores(u)
	}()
	snap.weights = whole
	for i := 0; i < 4; i++ {
		if got := snap.Scores(u); got != want {
			t.Fatalf("after a panicked call %q scores %v, want %v", u, got, want)
		}
	}
}
