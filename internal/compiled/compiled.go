// Package compiled flattens a trained core.System into a read-only
// Snapshot optimised for serving. Every trainable Algorithm×FeatureSet
// compiles natively — there is no fallback path:
//
//   - the linear family (Naive Bayes, Relative Entropy, Maximum Entropy)
//     packs its five per-language weight vectors into one contiguous,
//     language-interleaved slice keyed by token ID, resolved through a
//     packed word index over an open-addressing string table (word
//     features, see words.go), the table itself (raw-trigram features),
//     a dense trigram index over the table (trigram features, see
//     trigram.go) or fed by the dense custom-feature extractor;
//   - decision trees flatten into per-language node arrays (feature,
//     threshold, child indices, precomputed leaf scores) walked without
//     pointer chasing;
//   - kNN packs its reference vectors into per-language CSR arrays with
//     precomputed norms;
//   - the ccTLD baselines compile to a TLD lookup over the normal form.
//
// Classifying a URL with a Snapshot performs no training-time work: no
// Parts struct, no sparse-vector builder map. Scores are bit-identical
// to the source System's — each mode replays exactly the same float64
// operations in exactly the same order, only reorganising where the
// operands live (see snapshot_test.go for the proof over every
// configuration). The linear and custom paths run at zero heap
// allocations per call; feature extraction streams through pooled
// scratch shared with internal/features.
package compiled

import (
	"fmt"
	"sync"

	"urllangid/internal/calib"
	"urllangid/internal/core"
	"urllangid/internal/dtree"
	"urllangid/internal/features"
	"urllangid/internal/knn"
	"urllangid/internal/langid"
	"urllangid/internal/maxent"
	"urllangid/internal/nb"
	"urllangid/internal/relent"
	"urllangid/internal/strtab"
	"urllangid/internal/tldbase"
	"urllangid/internal/urlx"
)

// mode selects the compiled scoring strategy. The numbering is part of
// the wire format: v3 files store the numeric id. 0 is reserved (it
// once marked a retired fallback form) and never loads.
type mode uint8

const (
	_ mode = iota
	// modeCount starts from a per-language prior and adds count-weighted
	// feature weights (Naive Bayes: s = prior + Σ c·w).
	modeCount
	// modeCountPost accumulates from zero and adds a per-language bias
	// last (Maximum Entropy: s = Σ c·w + bias).
	modeCountPost
	// modeNormalized divides counts by their total mass before weighting
	// and adds the (negated) margin last (Relative Entropy:
	// s = Σ (c/Σc)·w − margin; an empty vector scores −margin).
	modeNormalized
	// modeDTree walks per-language flattened decision trees.
	modeDTree
	// modeKNN scores against packed per-language reference sets.
	modeKNN
	// modeTLD answers from the country-code TLD tables.
	modeTLD
)

// Snapshot is a read-only compiled classifier. It is safe for concurrent
// use: all state is immutable after construction, and per-call scratch
// buffers come from an internal pool.
type Snapshot struct {
	cfg  core.Config
	mode mode
	kind features.Kind
	// raw marks the raw-trigram feature variant: grams come from the raw
	// URL string (crossing token boundaries), not the normal form.
	raw bool
	dim uint32
	// weights is language-interleaved: weights[id*NumLanguages+li] is the
	// weight of token id for language li, so one token lookup touches one
	// contiguous 40-byte strip instead of five scattered slices.
	weights []float64
	pre     [langid.NumLanguages]float64
	post    [langid.NumLanguages]float64
	// table resolves tokens (or trigrams) to IDs for the word/trigram
	// feature families.
	table strtab.Table
	// tri is the trigram kernel's code → ID+1 index, derived from table
	// for normal-form trigram snapshots and nil otherwise. FromSystem
	// builds it; a flat snapshot builds it in its deferred verification
	// pass, once the table is known to be sound.
	tri *trigramIndex
	// words is the word kernel's packed token index (see words.go),
	// derived from table for word snapshots and nil otherwise. Like
	// tri, FromSystem builds it, or a flat snapshot's verification pass.
	words *wordIndex
	// custom is the streaming custom-feature extractor for the custom
	// families (shared with the source system when compiled in-process,
	// rebuilt from the trained dictionary when loaded from disk).
	custom *features.CustomExtractor
	// trees and refs back the decision-tree and kNN modes.
	trees [langid.NumLanguages]flatTree
	refs  [langid.NumLanguages]packedRefs
	// baseline backs modeTLD.
	baseline tldbase.Classifier
	pool     sync.Pool
	// flat is non-nil for snapshots loaded from a v3 flat container,
	// whose bulk arrays are views over the (possibly mapped) file bytes.
	// It carries the backing mapping's lifetime and the once-guarded
	// deferred verification state; see flat.go. Heap-backed snapshots
	// leave it nil and skip the verification gate entirely.
	flat *flatSource
	// calib is the optional fitted margin → probability calibration
	// (persisted as flat.SecCalib). Nil for uncalibrated models; the
	// cascade then falls back to raw-margin thresholds.
	calib *calib.Calibration
}

// scratch holds the per-call buffers of the scoring hot path. All
// feature state — the rewritten normal form, the token families' ID
// bitmap, the dense custom vector, kNN candidate hits — lives here, so
// a warmed pool serves any URL without touching the heap.
type scratch struct {
	// norm backs urlx.NormalizeInto: URLs that need byte rewriting
	// (escapes, uppercase) normalize into this reused buffer. Tokens and
	// everything derived from them alias it (or the raw URL) and are
	// only valid until the next use of the same scratch.
	norm []byte
	// feat holds the custom families' extraction buffers.
	feat features.Scratch
	hits []knnHit
	// summary, marks and counts are the token families' ID bitmap (see
	// bitmap.go), sized by newScratch and all zero between calls; idx
	// and val hold the vector the decision-tree and kNN modes read out
	// of it.
	summary []uint64
	marks   []uint64
	counts  []uint32
	idx     []uint32
	val     []float32
}

// newScratch is the scratch pool's constructor. A token-family
// snapshot's scratch gets its bitmap here, off the scoring path: per
// vocabulary ID a bit, 1/64 of a summary bit and a uint32 count, about
// 30 KB for a 7,230-word vocabulary. The counts are uint32 because a
// /v1/stream line may be a mebibyte long.
func (s *Snapshot) newScratch() any {
	sc := new(scratch)
	if s.mode != modeTLD && !s.isCustom() {
		sc.newBitmap(s.dim)
	}
	return sc
}

// FromSystem compiles sys into a Snapshot. Every trainable
// configuration compiles; FromSystem panics on a System whose shape no
// trainer can produce (mixed model families, an unknown extractor).
func FromSystem(sys *core.System) *Snapshot {
	s := &Snapshot{cfg: sys.Config}
	s.pool.New = s.newScratch
	if !sys.Config.Algo.NeedsTraining() {
		s.mode = modeTLD
		s.baseline = baselineFor(sys.Config.Algo)
		return s
	}

	switch ext := sys.Extractor.(type) {
	case *features.WordExtractor:
		s.kind = features.Words
		s.table = strtab.New(ext.Vocab().Names())
		s.words = buildWordIndex(&s.table)
	case *features.TrigramExtractor:
		s.kind = features.Trigrams
		s.table = strtab.New(ext.Vocab().Names())
		s.tri = buildTrigramIndex(&s.table)
	case *features.RawTrigramExtractor:
		s.kind = features.Trigrams
		s.raw = true
		s.table = strtab.New(ext.Vocab().Names())
	case *features.CustomExtractor:
		s.kind = ext.Kind()
		s.custom = ext
	default:
		panic(fmt.Sprintf("compiled: unknown extractor %T", sys.Extractor))
	}
	s.dim = uint32(sys.Extractor.Dim())

	var err error
	switch sys.Models[0].(type) {
	case *nb.Model, *maxent.Model, *relent.Model:
		var m compiledLinear
		m, err = compileLinear(sys, int(s.dim))
		s.mode, s.weights, s.pre, s.post = m.mode, m.weights, m.pre, m.post
	case *dtree.Model:
		s.mode = modeDTree
		err = s.compileTrees(sys)
	case *knn.Model:
		s.mode = modeKNN
		err = s.compileRefs(sys)
	default:
		err = fmt.Errorf("unknown model family %T", sys.Models[0])
	}
	if err != nil {
		panic("compiled: " + err.Error())
	}
	return s
}

// baselineFor maps a baseline algorithm to its classifier.
func baselineFor(a core.Algo) tldbase.Classifier {
	if a == core.CcTLDPlus {
		return tldbase.CcTLDPlus()
	}
	return tldbase.CcTLD()
}

// Describe returns the source configuration label, e.g. "NB/word".
func (s *Snapshot) Describe() string { return s.cfg.Describe() }

// Mode names the compiled scoring strategy the snapshot took: "linear"
// (packed token-linear models), "custom" (dense custom-feature linear
// models), "dtree" (flattened decision trees), "knn" (packed reference
// sets) or "tld" (country-code baseline).
func (s *Snapshot) Mode() string {
	switch s.mode {
	case modeDTree:
		return "dtree"
	case modeKNN:
		return "knn"
	case modeTLD:
		return "tld"
	default:
		if s.isCustom() {
			return "custom"
		}
		return "linear"
	}
}

// Dim returns the feature-space dimensionality of the compiled path
// (0 for the TLD baselines, which have no feature space).
func (s *Snapshot) Dim() int { return int(s.dim) }

// SetCalibration attaches a fitted margin → probability calibration to
// the snapshot. WriteFlat persists it as the container's calibration
// section. Not safe to call concurrently with scoring; calibrate at
// compile time, before the snapshot starts serving.
func (s *Snapshot) SetCalibration(c *calib.Calibration) { s.calib = c }

// Calibration returns the attached calibration, or nil when the model
// is uncalibrated.
func (s *Snapshot) Calibration() *calib.Calibration { return s.calib }

// Confidence maps a score margin to the calibrated probability that
// the snapshot's top-1 answer is correct. ok is false when the model
// carries no calibration. This is the cascade.Confidencer contract.
//
//urllangid:hotpath
func (s *Snapshot) Confidence(margin float64) (float64, bool) {
	if s.calib == nil {
		return 0, false
	}
	return s.calib.Prob(margin), true
}

// isCustom reports whether features come from the dense custom
// extractor.
func (s *Snapshot) isCustom() bool {
	return s.kind == features.Custom || s.kind == features.CustomSelected
}

// keyedByRaw reports whether scoring consumes the raw URL string rather
// than the normal form: custom features score the raw URL's length, and
// raw trigrams cross the normal form's token boundaries by design.
func (s *Snapshot) keyedByRaw() bool { return s.isCustom() || s.raw }

// CacheKey returns the cache key under which rawURL's result may be
// shared. Modes that consume only the normal form key by it, so scheme
// variants and percent-encodings collapse onto one entry; the custom
// and raw-trigram modes consult the raw string and key by the URL
// itself.
func (s *Snapshot) CacheKey(rawURL string) string {
	if s.keyedByRaw() {
		return rawURL
	}
	return urlx.Normalize(rawURL)
}

// ScoresInto computes the five per-language decision scores for rawURL,
// in canonical language order, into *out. The sign of each score is the
// binary decision, exactly as in core.System.Predictions. This is the
// primitive backing the serving layers' allocation contract: the linear,
// custom, dtree and TLD paths are allocation-free — normalization and
// extraction stream through pooled scratch.
//
//urllangid:hotpath
func (s *Snapshot) ScoresInto(out *[langid.NumLanguages]float64, rawURL string) {
	s.ensureVerified()
	sc := s.pool.Get().(*scratch)
	input := rawURL
	if !s.keyedByRaw() {
		input = urlx.NormalizeInto(&sc.norm, rawURL)
	}
	*out = s.scoreInput(input, sc)
	s.pool.Put(sc)
}

// Scores returns the five per-language decision scores for rawURL; see
// ScoresInto. Returning the array by value stays allocation-free.
//
//urllangid:hotpath
func (s *Snapshot) Scores(rawURL string) [langid.NumLanguages]float64 {
	var out [langid.NumLanguages]float64
	s.ScoresInto(&out, rawURL)
	return out
}

// ClassifyInto fills *r with rawURL's classification — scores plus the
// packed decision bits — with the same allocation behaviour as
// ScoresInto.
//
//urllangid:hotpath
func (s *Snapshot) ClassifyInto(r *langid.Result, rawURL string) {
	var scores [langid.NumLanguages]float64
	s.ScoresInto(&scores, rawURL)
	*r = langid.NewResult(scores)
}

// Classify returns rawURL's classification as a langid.Result value,
// bit-identical to the source classifier's scores.
//
//urllangid:hotpath
func (s *Snapshot) Classify(rawURL string) langid.Result {
	var r langid.Result
	s.ClassifyInto(&r, rawURL)
	return r
}

// ScoresForKey scores a URL already reduced to its CacheKey form,
// skipping the second normalization the Classify miss path would
// otherwise pay. The key contract matches CacheKey exactly: normal form
// for the normal-form-keyed modes, raw URL for the custom and
// raw-trigram modes.
//
//urllangid:hotpath
func (s *Snapshot) ScoresForKey(key string) [langid.NumLanguages]float64 {
	s.ensureVerified()
	sc := s.pool.Get().(*scratch)
	out := s.scoreInput(key, sc)
	s.pool.Put(sc)
	return out
}

// scoreInput runs the compiled path over input — the raw URL for
// raw-keyed snapshots, the normal form otherwise. input may alias
// sc.norm, so sc's normalization buffer must not be reused until the
// scores are computed. Its callers put sc back in the pool only when
// it returns: a scoring call that panics may leave IDs marked in sc's
// bitmap, and the next call on sc would score them.
func (s *Snapshot) scoreInput(input string, sc *scratch) [langid.NumLanguages]float64 {
	if s.mode == modeTLD {
		return s.tldScores(input)
	}

	// The custom families extract densely through the streaming layer
	// (the tree walk reads the dense form directly; the other modes
	// score its sparse compression). The token families mark their IDs
	// in the scratch's bitmap: words through the word index, normal-form
	// trigrams through the trigram kernel, raw trigrams through the
	// string table.
	if s.isCustom() {
		if s.mode == modeDTree {
			return s.dtreeScores(s.custom.ExtractDense(&sc.feat, input), nil, nil)
		}
		sp := s.custom.ExtractInto(&sc.feat, input)
		if s.mode == modeKNN {
			return s.knnScores(sp.Idx, sp.Val, sc)
		}
		return s.linearScores(sp.Idx, sp.Val)
	}

	s.collect(input, sc)
	switch s.mode {
	case modeDTree:
		idx, val := sc.vector()
		return s.dtreeScores(nil, idx, val)
	case modeKNN:
		idx, val := sc.vector()
		return s.knnScores(idx, val, sc)
	default:
		return s.tokenScores(sc)
	}
}

// collect marks the IDs of a token-family snapshot's features of input
// in sc's bitmap.
func (s *Snapshot) collect(input string, sc *scratch) {
	switch {
	case s.raw:
		features.VisitRawTrigrams(input, func(g string) {
			if id, ok := s.table.Lookup(g); ok {
				sc.mark(id)
			}
		})
	case s.kind == features.Trigrams:
		s.collectTrigrams(input, sc)
	default:
		s.collectTokens(input, sc)
	}
}

// tldScores answers the baseline from the normal form's TLD: +1 for the
// assigned language, −1 everywhere else, exactly as core.System.Scores
// expands the baseline decision.
func (s *Snapshot) tldScores(norm string) [langid.NumLanguages]float64 {
	host, _ := urlx.SplitNormalized(norm)
	got, ok := s.baseline.ClassifyTLD(urlx.LastLabel(host))
	var out [langid.NumLanguages]float64
	for li := range out {
		out[li] = -1
		if ok && got == langid.Language(li) {
			out[li] = 1
		}
	}
	return out
}

// Predictions classifies rawURL, returning one scored prediction per
// language in canonical order — the drop-in replacement for
// core.System.Predictions.
func (s *Snapshot) Predictions(rawURL string) []langid.Prediction {
	return langid.PredictionsFromScores(s.Scores(rawURL))
}

// Languages returns the languages whose classifier answered yes.
func (s *Snapshot) Languages(rawURL string) []langid.Language {
	return langid.LanguagesFromScores(s.Scores(rawURL))
}

// Best returns the highest-scoring language, its score, and whether any
// classifier answered yes, mirroring core.System.Best.
func (s *Snapshot) Best(rawURL string) (langid.Language, float64, bool) {
	return langid.BestFromScores(s.Scores(rawURL))
}
