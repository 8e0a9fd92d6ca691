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
// The cascade holds no tier references itself: a TierProvider pins a
// tier per call (registry slots refcount their current version), so
// either tier can be reloaded or swapped mid-stream without the
// cascade serving a torn or closed snapshot. Both pins are released on
// every path, including tier-acquisition failures — the pinpair
// analyzer's two-tier corpus case guards the shape.
package cascade

import (
	"math"
	"time"

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

// TierProvider pins the cascade's tiers for the duration of one
// classification. Implementations must return a release func that is
// valid to call exactly once; the cascade calls it on every path.
// The registry's implementation resolves a named slot and hands out
// its refcounted release, which is what lets tiers reload mid-stream.
type TierProvider interface {
	AcquireFast() (Predictor, func(), error)
	AcquireSlow() (Predictor, func(), error)
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

// Stats counts the cascade's routing decisions and per-tier scoring
// latency. All recorders are wait-free and allocation-free (see
// internal/obs); histograms record nanoseconds.
type Stats struct {
	fast        obs.Counter // answered by the fast tier alone
	escalations obs.Counter // slow tier consulted
	tierErrors  obs.Counter // a tier failed to pin
	fastLatency obs.Histogram
	slowLatency obs.Histogram
}

// FastServed returns the number of URLs the fast tier answered alone.
func (s *Stats) FastServed() int64 { return s.fast.Value() }

// Escalations returns the number of URLs routed to the slow tier.
func (s *Stats) Escalations() int64 { return s.escalations.Value() }

// TierErrors returns the number of tier-pin failures.
func (s *Stats) TierErrors() int64 { return s.tierErrors.Value() }

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

// FastLatency and SlowLatency expose the per-tier scoring histograms
// for metric exposition.
func (s *Stats) FastLatency() *obs.Histogram { return &s.fastLatency }
func (s *Stats) SlowLatency() *obs.Histogram { return &s.slowLatency }

// TierSnapshot is the JSON shape of one cascade's routing stats, as
// embedded in /stats responses.
type TierSnapshot struct {
	FastServed     int64   `json:"fast_served"`
	Escalations    int64   `json:"escalations"`
	TierErrors     int64   `json:"tier_errors,omitempty"`
	EscalationRate float64 `json:"escalation_rate"`
	FastP50Usec    float64 `json:"fast_p50_us"`
	FastP99Usec    float64 `json:"fast_p99_us"`
	SlowP50Usec    float64 `json:"slow_p50_us"`
	SlowP99Usec    float64 `json:"slow_p99_us"`
}

// Snapshot captures the current stats. Concurrent-safe; counters are
// read individually, so totals may skew by in-flight requests.
func (s *Stats) Snapshot() TierSnapshot {
	return TierSnapshot{
		FastServed:     s.fast.Value(),
		Escalations:    s.escalations.Value(),
		TierErrors:     s.tierErrors.Value(),
		EscalationRate: s.EscalationRate(),
		FastP50Usec:    s.fastLatency.Quantile(0.50) / 1e3,
		FastP99Usec:    s.fastLatency.Quantile(0.99) / 1e3,
		SlowP50Usec:    s.slowLatency.Quantile(0.50) / 1e3,
		SlowP99Usec:    s.slowLatency.Quantile(0.99) / 1e3,
	}
}

// Cascade routes each URL through the fast tier and escalates
// low-confidence or confusable answers to the slow tier. It implements
// the serving stack's Predictor contract, so it installs into a
// registry slot like any single model. Immutable after New and
// safe for concurrent use.
type Cascade struct {
	tiers     TierProvider
	threshold float64
	// confusable[best] holds the languages that force escalation when
	// they are the runner-up to best; symmetric by construction.
	confusable [langid.NumLanguages]langid.LabelSet
	stats      Stats
}

// New builds a cascade over the given tiers. See Config for the
// threshold and confusable-pair semantics.
func New(tiers TierProvider, cfg Config) *Cascade {
	c := &Cascade{tiers: tiers, threshold: cfg.Threshold}
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
	c.stats.fastLatency.Scale = 1e-9
	c.stats.slowLatency.Scale = 1e-9
	return c
}

// Threshold returns the effective escalation threshold.
func (c *Cascade) Threshold() float64 { return c.threshold }

// TierStats returns the cascade's routing counters. The serving layer
// type-asserts for this method to surface escalation stats.
func (c *Cascade) TierStats() *Stats { return &c.stats }

// errScores is the all-"no" vector returned when no tier could be
// pinned: every score is -Inf, so nothing is claimed and Best reports
// no confident language.
var errScores = func() [langid.NumLanguages]float64 {
	var s [langid.NumLanguages]float64
	for i := range s {
		s[i] = math.Inf(-1)
	}
	return s
}()

// ScoresInto classifies rawURL through the cascade, writing the
// decisive tier's scores into out. The result is bit-identical to
// whichever tier decided: the fast tier's scores pass through
// untouched when confidence holds, and the slow tier's scores replace
// them entirely on escalation.
//
//urllangid:hotpath
func (c *Cascade) ScoresInto(out *[langid.NumLanguages]float64, rawURL string) {
	fast, frel, err := c.tiers.AcquireFast()
	if err != nil {
		c.stats.tierErrors.Inc()
		*out = errScores
		return
	}
	t0 := time.Now()
	*out = fast.Scores(rawURL)
	c.stats.fastLatency.Observe(int64(time.Since(t0)))
	if !c.shouldEscalate(fast, out) {
		c.stats.fast.Inc()
		frel()
		return
	}
	// The fast pin is held across the slow acquire so a failed
	// escalation can still stand on the fast answer.
	slow, srel, err := c.tiers.AcquireSlow()
	if err != nil {
		c.stats.tierErrors.Inc()
		c.stats.fast.Inc()
		frel()
		return
	}
	t0 = time.Now()
	*out = slow.Scores(rawURL)
	c.stats.slowLatency.Observe(int64(time.Since(t0)))
	c.stats.escalations.Inc()
	srel()
	frel()
}

// shouldEscalate implements the escalation contract over the fast
// tier's scores: confusable top-two pairs always escalate; otherwise
// the margin (calibrated to a probability when the tier supports it)
// must clear the threshold.
//
//urllangid:hotpath
func (c *Cascade) shouldEscalate(fast Predictor, scores *[langid.NumLanguages]float64) bool {
	best, second := langid.TopTwoFromScores(*scores)
	if c.confusable[best].Has(second) {
		return true
	}
	margin := langid.MarginFromScores(*scores)
	if conf, ok := fast.(Confidencer); ok {
		if p, calibrated := conf.Confidence(margin); calibrated {
			return p < c.threshold
		}
	}
	return margin < c.threshold
}

// Scores classifies rawURL and returns the decisive tier's scores.
//
//urllangid:hotpath
func (c *Cascade) Scores(rawURL string) [langid.NumLanguages]float64 {
	var out [langid.NumLanguages]float64
	c.ScoresInto(&out, rawURL)
	return out
}

// Classify classifies rawURL into a full Result. Bit-identical to the
// deciding tier's own Classify.
//
//urllangid:hotpath
func (c *Cascade) Classify(rawURL string) langid.Result {
	var out [langid.NumLanguages]float64
	c.ScoresInto(&out, rawURL)
	return langid.NewResult(out)
}
