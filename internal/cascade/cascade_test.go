package cascade

import (
	"sync/atomic"
	"testing"

	"urllangid/internal/calib"
	"urllangid/internal/langid"
)

// scoreTier is a stub tier answering every URL with a fixed score
// vector and counting the URLs it scored.
type scoreTier struct {
	scores [langid.NumLanguages]float64
	calls  atomic.Int64
}

func (t *scoreTier) Scores(string) [langid.NumLanguages]float64 {
	t.calls.Add(1)
	return t.scores
}

// calibTier is a calibrated fast tier: Confidence maps every margin
// through a fitted two-point calibration.
type calibTier struct {
	scoreTier
	cal *calib.Calibration
}

func (t *calibTier) Confidence(margin float64) (float64, bool) {
	return t.cal.Prob(margin), true
}

func scoresFor(best langid.Language, margin float64) [langid.NumLanguages]float64 {
	var s [langid.NumLanguages]float64
	for i := range s {
		s[i] = -10
	}
	s[best] = -10 + margin
	return s
}

func TestFastPathAnswersConfidentURLs(t *testing.T) {
	fast := &scoreTier{scores: scoresFor(langid.German, 5)}
	slow := &scoreTier{scores: scoresFor(langid.English, 9)}
	c := New(fast, slow, Config{Threshold: 2}) // uncalibrated: raw-margin cut
	got := c.Scores("http://example.de/")
	if got != fast.scores {
		t.Fatalf("confident URL not answered by fast tier: %v", got)
	}
	if slow.calls.Load() != 0 {
		t.Fatal("slow tier consulted on the confident path")
	}
	st := c.TierStats()
	if st.FastServed() != 1 || st.Escalations() != 0 {
		t.Fatalf("stats: fast=%d escalations=%d, want 1/0", st.FastServed(), st.Escalations())
	}
}

func TestLowMarginEscalates(t *testing.T) {
	slowScores := scoresFor(langid.English, 9)
	c := New(&scoreTier{scores: scoresFor(langid.German, 0.5)}, &scoreTier{scores: slowScores}, Config{Threshold: 2})
	if got := c.Scores("http://example.com/"); got != slowScores {
		t.Fatalf("low-margin URL not escalated: %v", got)
	}
	st := c.TierStats()
	if st.Escalations() != 1 || st.FastServed() != 0 {
		t.Fatalf("stats: fast=%d escalations=%d, want 0/1", st.FastServed(), st.Escalations())
	}
	if got := st.EscalationRate(); got != 1 {
		t.Fatalf("EscalationRate = %v, want 1", got)
	}
}

func TestConfusablePairForcesEscalation(t *testing.T) {
	// fr over it with an enormous margin: confidence alone would never
	// escalate, the confusable route must.
	fast := scoresFor(langid.French, 100)
	fast[langid.Italian] = 50
	slowScores := scoresFor(langid.Italian, 3)
	c := New(&scoreTier{scores: fast}, &scoreTier{scores: slowScores}, Config{Threshold: 1})
	if got := c.Scores("http://example.fr/ciao"); got != slowScores {
		t.Fatalf("confusable fr/it pair not escalated: %v", got)
	}
	// The same scores with confusable routing explicitly disabled stay
	// on the fast tier.
	c2 := New(&scoreTier{scores: fast}, &scoreTier{scores: slowScores}, Config{Threshold: 1, Confusable: [][2]langid.Language{}})
	if got := c2.Scores("http://example.fr/ciao"); got != fast {
		t.Fatalf("disabled confusable routing still escalated: %v", got)
	}
}

func TestCalibratedThreshold(t *testing.T) {
	// Calibration: margin 0 → p=0, margin 10 → p=1, linear between.
	cal, err := calib.Fit([]calib.Point{
		{Margin: 0, Correct: false},
		{Margin: 10, Correct: true},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	slowScores := scoresFor(langid.English, 9)
	run := func(margin, threshold float64) (escalated bool) {
		fast := &calibTier{scoreTier: scoreTier{scores: scoresFor(langid.German, margin)}, cal: cal}
		c := New(fast, &scoreTier{scores: slowScores}, Config{Threshold: threshold})
		return c.Scores("http://example.com/") == slowScores
	}
	// margin 8 → p=0.8: below a 0.9 threshold, above a 0.5 one. Note a
	// raw-margin read of 8 vs either threshold would invert the first
	// case — proving the calibration, not the margin, decides.
	if !run(8, 0.9) {
		t.Fatal("p=0.8 under threshold 0.9 should escalate")
	}
	if run(8, 0.5) {
		t.Fatal("p=0.8 over threshold 0.5 should not escalate")
	}
}

func TestDefaultThreshold(t *testing.T) {
	c := New(&scoreTier{}, &scoreTier{}, Config{})
	if c.threshold != calib.DefaultThreshold {
		t.Fatalf("threshold = %v, want calib.DefaultThreshold", c.threshold)
	}
}

func TestSnapshotShape(t *testing.T) {
	c := New(&scoreTier{scores: scoresFor(langid.German, 5)}, &scoreTier{scores: scoresFor(langid.English, 9)}, Config{Threshold: 2})
	for i := 0; i < 8; i++ {
		c.Scores("http://example.de/")
	}
	snap := c.TierStats().Snapshot()
	if snap.FastServed != 8 || snap.Escalations != 0 || snap.EscalationRate != 0 {
		t.Fatalf("snapshot %+v, want 8 fast-served", snap)
	}
}

func TestConfusableSymmetry(t *testing.T) {
	c := New(&scoreTier{}, &scoreTier{}, Config{Confusable: [][2]langid.Language{{langid.English, langid.German}}})
	if !c.confusable[langid.English].Has(langid.German) || !c.confusable[langid.German].Has(langid.English) {
		t.Fatal("confusable pairs must be symmetric")
	}
	// Invalid and self pairs are dropped, not installed.
	c2 := New(&scoreTier{}, &scoreTier{}, Config{Confusable: [][2]langid.Language{
		{langid.English, langid.English},
		{langid.Language(99), langid.German},
	}})
	for li := range c2.confusable {
		if c2.confusable[li] != 0 {
			t.Fatalf("degenerate pair installed for %s", langid.Language(li))
		}
	}
}
