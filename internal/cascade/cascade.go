// Package cascade composes two serving tiers into one model: a cheap
// fast tier answers every URL, and a heavier slow tier is consulted
// only when the fast answer does not look trustworthy. This is the
// FastSpell production pattern applied to the paper's configuration
// grid — the linear models decide the easy majority at nanosecond
// cost, while the DT/kNN/combined configurations that win Table 10
// keep their accuracy advantage on exactly the URLs where it matters.
//
// Escalation is decided per URL from the fast tier's own scores:
//
//   - confusable routing: if the top two languages form a known-hard
//     pair (fr/it-style Romance confusions by default), escalate
//     unconditionally — these are the pairs where URL evidence is
//     systematically thin and the margin over-promises;
//   - calibrated confidence: otherwise map the score margin
//     (langid.MarginFromScores) through the fast model's fitted
//     calibration (calib package) and escalate when the estimated
//     probability of being right falls below the threshold. An
//     uncalibrated fast tier compares the raw margin against the
//     threshold instead, so the cascade still works — just with a
//     threshold in score units rather than probability units.
//
// A Cascade scores the two predictors it was built over and pins
// nothing: whoever builds it keeps both usable for its lifetime, as the
// registry does by leasing the tier versions under each cascade version.
package cascade

import (
	"urllangid/internal/calib"
	"urllangid/internal/langid"
	"urllangid/internal/obs"
)

// Predictor is the scoring contract a tier must meet. It mirrors
// serve.Predictor without importing serve, so serve can wrap a Cascade
// like any other model.
type Predictor interface {
	Scores(rawURL string) [langid.NumLanguages]float64
}

// Confidencer is the optional calibrated-confidence contract. A fast
// tier that implements it (compiled snapshots with a fitted
// calibration, see compiled.Snapshot.Confidence) turns the escalation
// threshold into a probability; one that does not leaves the threshold
// in raw score-margin units.
type Confidencer interface {
	// Confidence maps a score margin to the estimated probability that
	// the tier's top-1 answer is correct; ok is false when the tier
	// carries no calibration.
	Confidence(margin float64) (prob float64, ok bool)
}

// DefaultConfusablePairs lists the language pairs that escalate
// unconditionally when they are the fast tier's top two: the Romance
// pairs, whose shared Latin vocabulary and cognate URL tokens make
// them the study's systematically hard confusions.
func DefaultConfusablePairs() [][2]langid.Language {
	return [][2]langid.Language{
		{langid.French, langid.Italian},
		{langid.French, langid.Spanish},
		{langid.Spanish, langid.Italian},
	}
}

// Config parameterises a cascade.
type Config struct {
	// Threshold is the escalation cut. With a calibrated fast tier it
	// is a probability: escalate when the calibrated confidence falls
	// below it. With an uncalibrated fast tier it is compared against
	// the raw score margin. <= 0 selects calib.DefaultThreshold.
	Threshold float64
	// Confusable lists unordered language pairs that force escalation
	// whenever they are the fast tier's top two. Nil selects
	// DefaultConfusablePairs; an explicit empty (non-nil) slice
	// disables confusable routing entirely.
	Confusable [][2]langid.Language
}

// Stats counts the cascade's routing decisions, its health signal. The
// counters are wait-free and allocation-free (see internal/obs); the
// cascade reads no clock, since its engine times each call and the
// benchmark times each tier.
type Stats struct {
	fast        obs.Counter // answered by the fast tier alone
	escalations obs.Counter // slow tier consulted
}

// FastServed returns the number of URLs the fast tier answered alone.
func (s *Stats) FastServed() int64 { return s.fast.Value() }

// Escalations returns the number of URLs routed to the slow tier.
func (s *Stats) Escalations() int64 { return s.escalations.Value() }

// EscalationRate returns the fraction of classified URLs that
// consulted the slow tier, or 0 before any traffic.
func (s *Stats) EscalationRate() float64 {
	esc := s.escalations.Value()
	total := s.fast.Value() + esc
	if total == 0 {
		return 0
	}
	return float64(esc) / float64(total)
}

// TierSnapshot is the JSON shape of one cascade's routing stats, as
// embedded in /stats responses.
type TierSnapshot struct {
	FastServed     int64   `json:"fast_served"`
	Escalations    int64   `json:"escalations"`
	EscalationRate float64 `json:"escalation_rate"`
}

// Snapshot captures the current stats. Concurrent-safe; counters are
// read individually, so totals may skew by in-flight requests.
func (s *Stats) Snapshot() TierSnapshot {
	return TierSnapshot{
		FastServed:     s.fast.Value(),
		Escalations:    s.escalations.Value(),
		EscalationRate: s.EscalationRate(),
	}
}

// Cascade routes each URL through the fast tier and escalates
// low-confidence or confusable answers to the slow tier. It implements
// the serving stack's Predictor contract, so it installs into a
// registry slot like any single model. Immutable after New and
// safe for concurrent use.
type Cascade struct {
	fast, slow Predictor
	conf       Confidencer // the fast tier's calibration; nil without one
	threshold  float64
	// confusable[best] holds the languages that force escalation when
	// they are the runner-up to best; symmetric by construction.
	confusable [langid.NumLanguages]langid.LabelSet
	stats      Stats
}

// New builds a cascade over the given tiers. See Config for the
// threshold and confusable-pair semantics.
func New(fast, slow Predictor, cfg Config) *Cascade {
	c := &Cascade{fast: fast, slow: slow, threshold: cfg.Threshold}
	c.conf, _ = fast.(Confidencer)
	if c.threshold <= 0 {
		c.threshold = calib.DefaultThreshold
	}
	pairs := cfg.Confusable
	if pairs == nil {
		pairs = DefaultConfusablePairs()
	}
	for _, p := range pairs {
		if p[0].Valid() && p[1].Valid() && p[0] != p[1] {
			c.confusable[p[0]] = c.confusable[p[0]].Add(p[1])
			c.confusable[p[1]] = c.confusable[p[1]].Add(p[0])
		}
	}
	return c
}

// TierStats returns the cascade's routing counters. The serving layer
// type-asserts for this method to surface escalation stats.
func (c *Cascade) TierStats() *Stats { return &c.stats }

// Scores classifies rawURL and returns the deciding tier's scores
// untouched: the fast tier's when confidence holds, the slow tier's on
// escalation.
//
//urllangid:hotpath
func (c *Cascade) Scores(rawURL string) [langid.NumLanguages]float64 {
	scores := c.fast.Scores(rawURL)
	if !c.shouldEscalate(&scores) {
		c.stats.fast.Inc()
		return scores
	}
	c.stats.escalations.Inc()
	return c.slow.Scores(rawURL)
}

// shouldEscalate implements the escalation contract over the fast
// tier's scores: confusable top-two pairs always escalate; otherwise
// the margin (calibrated to a probability when the tier supports it)
// must clear the threshold.
//
//urllangid:hotpath
func (c *Cascade) shouldEscalate(scores *[langid.NumLanguages]float64) bool {
	best, second := langid.TopTwoFromScores(*scores)
	if c.confusable[best].Has(second) {
		return true
	}
	margin := langid.MarginFromScores(*scores)
	if c.conf != nil {
		if p, calibrated := c.conf.Confidence(margin); calibrated {
			return p < c.threshold
		}
	}
	return margin < c.threshold
}
