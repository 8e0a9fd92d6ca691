// Package urllangid identifies the language of a web page from its URL
// alone, implementing Baykan, Henzinger and Weber: "Web Page Language
// Identification Based on URLs" (VLDB 2008).
//
// Given only a URL — no page content, no link structure — the classifier
// answers, for each of English, German, French, Spanish and Italian,
// whether the page behind the URL is written in that language. The
// motivating application is a search-engine crawler with per-language
// download quotas: knowing the language of an *uncrawled* URL avoids
// wasting bandwidth on pages in the wrong language.
//
// # Quick start
//
//	train := []urllangid.Sample{
//	    {URL: "http://www.wasserbett-test.com/preise.html", Lang: urllangid.German},
//	    {URL: "http://www.produits-recherche.fr/annonces", Lang: urllangid.French},
//	    // ... a few thousand more
//	}
//	clf, err := urllangid.Train(urllangid.Options{}, train)
//	if err != nil { ... }
//	r := clf.Classify("http://home.arcor.de/weather/seite.html")
//	if r.Is(urllangid.German) { ... }
//	langs := r.Languages()
//
// The default configuration — multinomial Naive Bayes over URL word
// features — is the paper's best single classifier (average F ≈ .91
// across its three test sets). All other combinations studied in the
// paper are available through Options: trigram and custom feature
// families; Relative Entropy, Maximum Entropy (Improved Iterative
// Scaling), Decision Tree and kNN learners; and the training-free
// ccTLD / ccTLD+ baselines.
//
// # The Model interface
//
// Every classifier form implements Model, whose primary method is
// Classify(rawURL) Result: a fixed-size value holding all five scores
// and decisions, queried through Is, Best, Languages and Predictions.
// Compile flattens a trained Classifier into a read-only Snapshot whose
// results are bit-identical but markedly faster — and allocation-free,
// which is what lets a crawler filter millions of frontier URLs without
// GC pressure. For sustained throughput, wrap any Model in a Batcher
// (result cache, serving stats), or hold several under
// names in a Registry — a versioned model collection whose slots can be
// atomically hot-swapped or reloaded from redeployed files with zero
// downtime. cmd/urllangid-serve exposes the registry over a
// batch/streaming HTTP API with per-model routing and reload
// endpoints.
//
// Models serialise with Save into a self-describing file format that
// Open reads back regardless of kind. Synthetic corpora matching the
// paper's three evaluation datasets can be generated with the repro
// tooling under cmd/repro; see README.md for usage and DESIGN.md for
// the architecture and experiment index.
package urllangid

import (
	"fmt"
	"io"

	"urllangid/internal/calib"
	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/features"
	"urllangid/internal/langid"
	"urllangid/internal/modelfile"
	"urllangid/internal/serve"
)

// Language identifies one of the five supported languages.
type Language = langid.Language

// The five languages of the study.
const (
	English = langid.English
	German  = langid.German
	French  = langid.French
	Spanish = langid.Spanish
	Italian = langid.Italian
)

// NumLanguages is the number of supported languages.
const NumLanguages = langid.NumLanguages

// Languages returns all supported languages in canonical order.
func Languages() []Language { return langid.Languages() }

// ParseLanguage converts a name ("German") or ISO code ("de") into a
// Language.
func ParseLanguage(s string) (Language, error) { return langid.Parse(s) }

// Sample is a labeled training example.
type Sample = langid.Sample

// Prediction is one binary classifier's scored decision.
type Prediction = langid.Prediction

// Result is one URL's complete classification: a fixed-size value type
// holding the five per-language decision scores plus the packed binary
// decisions. Constructing, copying and querying a Result allocates
// nothing — on the Snapshot path the whole Classify call runs at zero
// heap allocations — and the accessors answer every question the five
// independent binary classifiers can:
//
//	r := model.Classify(url)
//	r.Is(urllangid.German)  // one binary decision
//	r.Languages()           // all claimed languages, canonical order
//	r.Best()                // top language, its score, any claim?
//	r.Predictions()         // the full scored slice
//	r.Scores()              // the raw five-score vector
type Result = langid.Result

// NewResult builds a Result from a score vector in canonical language
// order, deriving the decision bits from the score signs (score >= 0 is
// "yes"). Custom Model implementations use it to construct their
// Classify return value.
func NewResult(scores [NumLanguages]float64) Result {
	return langid.NewResult(scores)
}

// Model is the interface every classifier form implements: a trained
// Classifier, a compiled Snapshot, and a Batcher wrapping either. Open
// returns a Model without the caller caring which kind a file holds.
//
// Classify never fails: malformed URLs tokenize to nothing and score
// like any other token-free input.
type Model interface {
	// Classify returns the URL's five-language classification.
	Classify(rawURL string) Result
	// ClassifyBatch classifies many URLs in parallel, one Result per
	// URL in input order.
	ClassifyBatch(urls []string) []Result
	// Describe returns the configuration label, e.g. "NB/word".
	Describe() string
	// Save serialises the model in the self-describing file format that
	// Open, Load and LoadSnapshot read.
	Save(w io.Writer) error
}

// The concrete model forms implement Model.
var (
	_ Model = (*Classifier)(nil)
	_ Model = (*Snapshot)(nil)
	_ Model = (*Batcher)(nil)
)

// FeatureSet selects the feature family of §3.1.
type FeatureSet uint8

// Feature families.
const (
	// WordFeatures uses URL tokens — the best-performing family with
	// ample training data.
	WordFeatures FeatureSet = iota
	// TrigramFeatures uses within-token character trigrams — the best
	// family when training data is scarce.
	TrigramFeatures
	// CustomFeatures uses the paper's 15 forward-selected hand-designed
	// features (ccTLD indicators and dictionary counters).
	CustomFeatures
	// CustomFeaturesAll uses the full 74-feature custom vector.
	CustomFeaturesAll
)

func (f FeatureSet) kind() features.Kind {
	switch f {
	case TrigramFeatures:
		return features.Trigrams
	case CustomFeatures:
		return features.CustomSelected
	case CustomFeaturesAll:
		return features.Custom
	default:
		return features.Words
	}
}

// String names the feature family.
func (f FeatureSet) String() string { return f.kind().String() }

// Algorithm selects the learner of §3.2.
type Algorithm uint8

// Learners and baselines.
const (
	// NaiveBayes is the paper's best single algorithm.
	NaiveBayes Algorithm = iota
	// RelativeEntropy offers the highest precision.
	RelativeEntropy
	// MaximumEntropy is trained with Improved Iterative Scaling.
	MaximumEntropy
	// DecisionTree is intended for the custom feature families.
	DecisionTree
	// KNN is the k-nearest-neighbour classifier the paper dropped for
	// poor quality; provided for completeness.
	KNN
	// CcTLD is the training-free country-code baseline.
	CcTLD
	// CcTLDPlus additionally counts .com/.org as English.
	CcTLDPlus
)

func (a Algorithm) algo() core.Algo {
	switch a {
	case RelativeEntropy:
		return core.RelEntropy
	case MaximumEntropy:
		return core.MaxEntropy
	case DecisionTree:
		return core.DecisionTree
	case KNN:
		return core.KNN
	case CcTLD:
		return core.CcTLD
	case CcTLDPlus:
		return core.CcTLDPlus
	default:
		return core.NaiveBayes
	}
}

// String names the algorithm with the paper's abbreviation.
func (a Algorithm) String() string { return a.algo().String() }

// Options configures training. The zero value selects the paper's best
// single configuration: Naive Bayes on word features.
type Options struct {
	// Features selects the feature family (default WordFeatures).
	Features FeatureSet
	// Algorithm selects the learner (default NaiveBayes).
	Algorithm Algorithm
	// Seed makes training deterministic; equal seeds and data produce
	// identical classifiers.
	Seed uint64
	// TrainOnContent additionally feeds Sample.Content into training
	// (the paper's §7 experiment — it *hurts* URL classification and is
	// off by default).
	TrainOnContent bool
	// MaxEntIterations overrides the IIS iteration count (default 40).
	MaxEntIterations int
	// Sequential disables parallel per-language training.
	Sequential bool
}

// Classifier is a trained URL language classifier: five independent
// binary deciders, one per language, over a shared feature extractor.
// It implements Model.
type Classifier struct {
	sys *core.System
}

// Train builds a classifier from labeled samples. The TLD baselines
// train from zero samples; all learners need at least one sample per
// language.
func Train(opts Options, samples []Sample) (*Classifier, error) {
	cfg := core.Config{
		Features:     opts.Features.kind(),
		Algo:         opts.Algorithm.algo(),
		Seed:         opts.Seed,
		WithContent:  opts.TrainOnContent,
		MEIterations: opts.MaxEntIterations,
		Sequential:   opts.Sequential,
	}
	sys, err := core.Train(cfg, samples)
	if err != nil {
		return nil, fmt.Errorf("urllangid: %w", err)
	}
	return &Classifier{sys: sys}, nil
}

// Classify returns the URL's five-language classification as a Result
// value.
func (c *Classifier) Classify(rawURL string) Result {
	return c.sys.Classify(rawURL)
}

// ClassifyBatch classifies many URLs in parallel, returning one Result
// per URL in input order. Results are identical to calling Classify
// per URL; only the wall-clock changes. For sustained serving
// workloads, wrap the classifier in a Batcher — it keeps a result cache
// across batches — or Compile it into a Snapshot for a faster scoring
// path.
func (c *Classifier) ClassifyBatch(urls []string) []Result {
	return classifyBatchOnce(c.sys, urls)
}

// Describe returns the classifier's configuration label, e.g. "NB/word".
func (c *Classifier) Describe() string { return c.sys.Config.Describe() }

// Save serialises the classifier in the self-describing model file
// format (magic header + kind + gob payload); Open and Load read it
// back.
func (c *Classifier) Save(w io.Writer) error {
	if err := modelfile.WriteClassifier(w, c.sys); err != nil {
		return fmt.Errorf("urllangid: %w", err)
	}
	return nil
}

// Compile flattens the classifier into a Snapshot.
func (c *Classifier) Compile() *Snapshot {
	return &Snapshot{snap: compiled.FromSystem(c.sys)}
}

// Load restores a classifier saved with Classifier.Save. Handed a
// snapshot file, it fails with an error saying so; use Open when the
// kind is unknown.
func Load(r io.Reader) (*Classifier, error) {
	m, err := Open(r)
	if err != nil {
		return nil, err
	}
	c, ok := m.(*Classifier)
	if !ok {
		return nil, fmt.Errorf("urllangid: Load: file holds a compiled snapshot, not a trained classifier — read it with LoadSnapshot or Open")
	}
	return c, nil
}

// Snapshot is a compiled, read-only form of a Classifier built for
// serving. Every trainable configuration compiles natively — linear
// models pack their weights into contiguous language-interleaved slices
// keyed through an allocation-free string table (or fed by the dense
// custom-feature extractor), decision trees flatten into pointer-free
// node arrays, kNN packs its reference vectors into contiguous arrays,
// and the ccTLD baselines compile to a TLD lookup. Results are
// bit-identical to the source classifier's while single-URL latency
// drops severalfold, and Classify performs zero heap allocations on the
// linear, custom-feature, decision-tree and baseline paths (see
// BenchmarkClassifyResult*). Snapshots are immutable and safe for
// concurrent use; they implement Model. Mode reports which compiled
// form a snapshot took.
type Snapshot struct {
	snap *compiled.Snapshot
}

// LoadSnapshot restores a snapshot saved with Snapshot.Save, e.g. the
// output of "urllangid compile". Handed a classifier file, it fails
// with an error saying so; use Open when the kind is unknown.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	m, err := Open(r)
	if err != nil {
		return nil, err
	}
	s, ok := m.(*Snapshot)
	if !ok {
		return nil, fmt.Errorf("urllangid: LoadSnapshot: file holds a trained classifier, not a compiled snapshot — read it with Load or Open, or compile it first")
	}
	return s, nil
}

// Open loads a model of either kind — trained classifier or compiled
// snapshot — from its self-describing file format, dispatching on the
// header. A file in an encoding earlier releases wrote fails with an
// error naming the command that rewrites it: "urllangid train" for a
// classifier, "urllangid compile" for a snapshot.
func Open(r io.Reader) (Model, error) {
	sys, snap, err := modelfile.Read(r)
	if err != nil {
		return nil, fmt.Errorf("urllangid: %w", err)
	}
	if snap != nil {
		return &Snapshot{snap: snap}, nil
	}
	return &Classifier{sys: sys}, nil
}

// OpenFile opens the model file at path through the cheapest route its
// container allows. Flat (version-3) snapshot files are memory-mapped
// and served zero-copy: open cost is independent of model size
// (microseconds, not proportional to megabytes), payload integrity is
// digest-verified lazily on the first classification, and the snapshot
// views the mapping in place until Close. A classifier file loads
// exactly as Open loads it, and any other encoding fails as it does in
// Open.
//
// Replace a file a process may have open by rename, never by
// rewriting it in place: the mapping shares the file's pages, so an
// in-place rewrite changes a mapped snapshot's answers or, when it
// truncates the file, kills the process.
//
// A Snapshot returned by OpenFile must be Closed after last use to
// release its mapping; Close on a non-mapped model is a free no-op.
// Callers that must not risk a corruption panic on the serving path can
// probe Verify once after opening.
func OpenFile(path string) (Model, error) {
	om, err := modelfile.OpenPath(path)
	if err != nil {
		return nil, fmt.Errorf("urllangid: %w", err)
	}
	if om.Snap != nil {
		return &Snapshot{snap: om.Snap}, nil
	}
	return &Classifier{sys: om.Sys}, nil
}

// Classify returns the URL's five-language classification, bit-identical
// to the source classifier's. On the compiled path the call performs no
// heap allocations.
//
//urllangid:hotpath
func (s *Snapshot) Classify(rawURL string) Result {
	return s.snap.Classify(rawURL)
}

// ClassifyBatch classifies many URLs in parallel, one Result per URL in
// input order, each identical to what Classify returns. For sustained
// workloads wrap the snapshot in a Batcher, which keeps a result cache
// across batches.
func (s *Snapshot) ClassifyBatch(urls []string) []Result {
	return classifyBatchOnce(s.snap, urls)
}

// Describe returns the source configuration label, e.g. "NB/word".
func (s *Snapshot) Describe() string { return s.snap.Describe() }

// Save serialises the snapshot in the self-describing model file
// format — the flat version-3 container, which OpenFile can later
// memory-map for a microsecond cold start; Open and LoadSnapshot read
// it back too.
func (s *Snapshot) Save(w io.Writer) error {
	if err := modelfile.WriteSnapshot(w, s.snap); err != nil {
		return fmt.Errorf("urllangid: %w", err)
	}
	return nil
}

// Verify checks the integrity of a memory-mapped snapshot — payload
// digests and structural invariants — returning the error a corrupt
// file would otherwise surface as a panic on the first classification.
// It runs the check once; later calls return the cached result. For
// snapshots that are not file-mapped it is a free no-op.
func (s *Snapshot) Verify() error {
	if err := s.snap.Verify(); err != nil {
		return fmt.Errorf("urllangid: %w", err)
	}
	return nil
}

// Close releases the memory mapping backing a snapshot returned by
// OpenFile. The snapshot must not be used afterwards. Close is
// idempotent, and a no-op for snapshots with no mapping (those from
// Open, Compile or LoadSnapshot).
func (s *Snapshot) Close() error {
	return s.snap.Close()
}

// CalibrationInfo summarises a snapshot's fitted margin → probability
// calibration: the fit itself (isotonic block count and the margin
// span it observed) plus the held-out evaluation it was built from.
type CalibrationInfo struct {
	// Points is the number of isotonic blocks in the monotone fit.
	Points int `json:"points"`
	// Threshold is the escalation threshold recorded with the
	// calibration; cascade serving uses it when no explicit threshold
	// is configured.
	Threshold float64 `json:"threshold"`
	// MinMargin and MaxMargin bound the margins observed at fit time;
	// queries outside clamp to the boundary probabilities.
	MinMargin float64 `json:"min_margin"`
	MaxMargin float64 `json:"max_margin"`
	// Samples and Accuracy report the held-out split the calibration
	// was fitted on and the snapshot's top-1 accuracy over it.
	Samples  int     `json:"samples,omitempty"`
	Accuracy float64 `json:"accuracy,omitempty"`
}

// Calibrate fits a monotone score-margin → probability calibration on
// held-out labeled samples and attaches it to the snapshot, so Save
// persists it and cascade serving can escalate on calibrated
// confidence instead of raw margins. threshold (<= 0 selects the
// default, 0.9) is recorded as the suggested escalation cut. The
// samples must be held out from training — calibrating on training
// data overstates confidence exactly where the cascade needs honesty.
// Not safe to call concurrently with classification.
func (s *Snapshot) Calibrate(samples []Sample, threshold float64) (CalibrationInfo, error) {
	c, rep, err := calib.FitEval(s.snap.Scores, samples, threshold)
	if err != nil {
		return CalibrationInfo{}, fmt.Errorf("urllangid: %w", err)
	}
	s.snap.SetCalibration(c)
	lo, hi := c.Range()
	return CalibrationInfo{
		Points:    c.Len(),
		Threshold: c.Threshold(),
		MinMargin: lo,
		MaxMargin: hi,
		Samples:   rep.Samples,
		Accuracy:  rep.Accuracy(),
	}, nil
}

// Calibration reports the snapshot's attached calibration, if any.
// Snapshots loaded from files written before calibration existed (or
// compiled without -calibrate) have none.
func (s *Snapshot) Calibration() (CalibrationInfo, bool) {
	c := s.snap.Calibration()
	if c == nil {
		return CalibrationInfo{}, false
	}
	lo, hi := c.Range()
	return CalibrationInfo{
		Points:    c.Len(),
		Threshold: c.Threshold(),
		MinMargin: lo,
		MaxMargin: hi,
	}, true
}

// Mode names the compiled form the snapshot took: "linear" (packed
// token-linear models), "custom" (dense custom-feature linear models),
// "dtree" (flattened decision trees), "knn" (packed reference sets) or
// "tld" (country-code baseline).
func (s *Snapshot) Mode() string { return s.snap.Mode() }

// classifyBatchOnce runs one ordered batch through a transient serving
// engine: GOMAXPROCS-way parallelism, no cache, no stats.
func classifyBatchOnce(p serve.Predictor, urls []string) []Result {
	e := serve.New(p, serve.Options{NoStats: true})
	return collapseBatch(e.ClassifyBatch(urls))
}

// collapseBatch strips the serving envelope, keeping the Result values.
func collapseBatch(res []serve.Result) []Result {
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = r.Result
	}
	return out
}
