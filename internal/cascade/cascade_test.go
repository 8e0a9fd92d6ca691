package cascade

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"urllangid/internal/calib"
	"urllangid/internal/langid"
)

// scoreTier is a stub tier answering every URL with a fixed score
// vector.
type scoreTier struct {
	scores [langid.NumLanguages]float64
}

func (t *scoreTier) Scores(string) [langid.NumLanguages]float64 { return t.scores }

// calibTier is a calibrated fast tier: Confidence maps every margin
// through a fitted two-point calibration.
type calibTier struct {
	scoreTier
	cal *calib.Calibration
}

func (t *calibTier) Confidence(margin float64) (float64, bool) {
	return t.cal.Prob(margin), true
}

// stubTiers counts acquires and releases so every test can assert the
// both-tiers-released invariant on every path.
type stubTiers struct {
	fast, slow       Predictor
	fastErr, slowErr error

	fastAcq, fastRel atomic.Int64
	slowAcq, slowRel atomic.Int64
}

func (s *stubTiers) AcquireFast() (Predictor, func(), error) {
	if s.fastErr != nil {
		return nil, nil, s.fastErr
	}
	s.fastAcq.Add(1)
	return s.fast, func() { s.fastRel.Add(1) }, nil
}

func (s *stubTiers) AcquireSlow() (Predictor, func(), error) {
	if s.slowErr != nil {
		return nil, nil, s.slowErr
	}
	s.slowAcq.Add(1)
	return s.slow, func() { s.slowRel.Add(1) }, nil
}

func (s *stubTiers) assertBalanced(t *testing.T) {
	t.Helper()
	if a, r := s.fastAcq.Load(), s.fastRel.Load(); a != r {
		t.Fatalf("fast tier pin leak: %d acquires, %d releases", a, r)
	}
	if a, r := s.slowAcq.Load(), s.slowRel.Load(); a != r {
		t.Fatalf("slow tier pin leak: %d acquires, %d releases", a, r)
	}
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
	tiers := &stubTiers{
		fast: &scoreTier{scores: scoresFor(langid.German, 5)},
		slow: &scoreTier{scores: scoresFor(langid.English, 9)},
	}
	c := New(tiers, Config{Threshold: 2}) // uncalibrated: raw-margin cut
	got := c.Scores("http://example.de/")
	if got != tiers.fast.(*scoreTier).scores {
		t.Fatalf("confident URL not answered by fast tier: %v", got)
	}
	if tiers.slowAcq.Load() != 0 {
		t.Fatal("slow tier consulted on the confident path")
	}
	st := c.TierStats()
	if st.FastServed() != 1 || st.Escalations() != 0 {
		t.Fatalf("stats: fast=%d escalations=%d, want 1/0", st.FastServed(), st.Escalations())
	}
	tiers.assertBalanced(t)
}

func TestLowMarginEscalates(t *testing.T) {
	slowScores := scoresFor(langid.English, 9)
	tiers := &stubTiers{
		fast: &scoreTier{scores: scoresFor(langid.German, 0.5)},
		slow: &scoreTier{scores: slowScores},
	}
	c := New(tiers, Config{Threshold: 2})
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
	tiers.assertBalanced(t)
}

func TestConfusablePairForcesEscalation(t *testing.T) {
	// fr over it with an enormous margin: confidence alone would never
	// escalate, the confusable route must.
	fast := scoresFor(langid.French, 100)
	fast[langid.Italian] = 50
	slowScores := scoresFor(langid.Italian, 3)
	tiers := &stubTiers{
		fast: &scoreTier{scores: fast},
		slow: &scoreTier{scores: slowScores},
	}
	c := New(tiers, Config{Threshold: 1})
	if got := c.Scores("http://example.fr/ciao"); got != slowScores {
		t.Fatalf("confusable fr/it pair not escalated: %v", got)
	}
	// The same scores with confusable routing explicitly disabled stay
	// on the fast tier.
	tiers2 := &stubTiers{
		fast: &scoreTier{scores: fast},
		slow: &scoreTier{scores: slowScores},
	}
	c2 := New(tiers2, Config{Threshold: 1, Confusable: [][2]langid.Language{}})
	if got := c2.Scores("http://example.fr/ciao"); got != fast {
		t.Fatalf("disabled confusable routing still escalated: %v", got)
	}
	tiers.assertBalanced(t)
	tiers2.assertBalanced(t)
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
		tiers := &stubTiers{
			fast: &calibTier{scoreTier: scoreTier{scores: scoresFor(langid.German, margin)}, cal: cal},
			slow: &scoreTier{scores: slowScores},
		}
		c := New(tiers, Config{Threshold: threshold})
		got := c.Scores("http://example.com/")
		tiers.assertBalanced(t)
		return got == slowScores
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
	c := New(&stubTiers{}, Config{})
	if c.Threshold() != calib.DefaultThreshold {
		t.Fatalf("Threshold = %v, want calib.DefaultThreshold", c.Threshold())
	}
}

func TestFastTierErrorYieldsNoClaims(t *testing.T) {
	tiers := &stubTiers{fastErr: errors.New("slot empty")}
	c := New(tiers, Config{Threshold: 1})
	r := c.Classify("http://example.com/")
	if r.Claims() != 0 {
		t.Fatalf("tier-error result claims languages: %v", r.Claims())
	}
	if _, _, any := r.Best(); any {
		t.Fatal("tier-error result reports a confident language")
	}
	if got := r.Score(langid.English); !math.IsInf(got, -1) {
		t.Fatalf("tier-error score = %v, want -Inf", got)
	}
	if c.TierStats().TierErrors() != 1 {
		t.Fatalf("TierErrors = %d, want 1", c.TierStats().TierErrors())
	}
	tiers.assertBalanced(t)
}

func TestSlowTierErrorKeepsFastAnswer(t *testing.T) {
	fast := scoresFor(langid.German, 0.1) // low margin: wants escalation
	tiers := &stubTiers{
		fast:    &scoreTier{scores: fast},
		slowErr: errors.New("slot draining"),
	}
	c := New(tiers, Config{Threshold: 2})
	if got := c.Scores("http://example.com/"); got != fast {
		t.Fatalf("fast answer should stand when the slow tier is unavailable: %v", got)
	}
	st := c.TierStats()
	if st.TierErrors() != 1 || st.FastServed() != 1 || st.Escalations() != 0 {
		t.Fatalf("stats: errors=%d fast=%d escalations=%d, want 1/1/0",
			st.TierErrors(), st.FastServed(), st.Escalations())
	}
	tiers.assertBalanced(t)
}

func TestSnapshotShape(t *testing.T) {
	tiers := &stubTiers{
		fast: &scoreTier{scores: scoresFor(langid.German, 5)},
		slow: &scoreTier{scores: scoresFor(langid.English, 9)},
	}
	c := New(tiers, Config{Threshold: 2})
	for i := 0; i < 8; i++ {
		c.Scores("http://example.de/")
	}
	snap := c.TierStats().Snapshot()
	if snap.FastServed != 8 || snap.Escalations != 0 || snap.EscalationRate != 0 {
		t.Fatalf("snapshot %+v, want 8 fast-served", snap)
	}
	if snap.FastP50Usec < 0 {
		t.Fatalf("negative fast p50 %v", snap.FastP50Usec)
	}
}

func TestConfusableSymmetry(t *testing.T) {
	c := New(&stubTiers{}, Config{Confusable: [][2]langid.Language{{langid.English, langid.German}}})
	if !c.confusable[langid.English].Has(langid.German) || !c.confusable[langid.German].Has(langid.English) {
		t.Fatal("confusable pairs must be symmetric")
	}
	// Invalid and self pairs are dropped, not installed.
	c2 := New(&stubTiers{}, Config{Confusable: [][2]langid.Language{
		{langid.English, langid.English},
		{langid.Language(99), langid.German},
	}})
	for li := range c2.confusable {
		if c2.confusable[li] != 0 {
			t.Fatalf("degenerate pair installed for %s", langid.Language(li))
		}
	}
}
