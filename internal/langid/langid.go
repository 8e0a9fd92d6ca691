// Package langid defines the core vocabulary of the URL language
// identification task studied in Baykan, Henzinger and Weber, "Web Page
// Language Identification Based on URLs" (VLDB 2008): the five target
// languages, labeled samples, and classifier predictions.
//
// The paper trains five independent binary classifiers ("Is it language X
// or not?") rather than one multi-way classifier, so a URL may legitimately
// be assigned zero, one, or several languages at once.
package langid

import (
	"fmt"
	"strings"
)

// Language identifies one of the five languages used in the paper's
// experiments.
type Language uint8

// The five languages of the study, in the paper's canonical order.
const (
	English Language = iota
	German
	French
	Spanish
	Italian

	numLanguages = 5
)

// NumLanguages is the number of target languages (five in the paper).
const NumLanguages = int(numLanguages)

// Languages returns all target languages in canonical order. The returned
// slice is freshly allocated; callers may modify it.
func Languages() []Language {
	return []Language{English, German, French, Spanish, Italian}
}

var languageNames = [numLanguages]string{"English", "German", "French", "Spanish", "Italian"}

// ISO 639-1 codes.
var languageCodes = [numLanguages]string{"en", "de", "fr", "es", "it"}

// String returns the English name of the language, e.g. "German".
func (l Language) String() string {
	if !l.Valid() {
		return fmt.Sprintf("Language(%d)", uint8(l))
	}
	return languageNames[l]
}

// Code returns the ISO 639-1 two-letter code of the language, e.g. "de".
func (l Language) Code() string {
	if !l.Valid() {
		return "??"
	}
	return languageCodes[l]
}

// Valid reports whether l is one of the five supported languages.
func (l Language) Valid() bool { return l < numLanguages }

// Parse converts a language name or ISO code (case-insensitive) into a
// Language. It accepts both "German" and "de".
func Parse(s string) (Language, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	for i := 0; i < NumLanguages; i++ {
		l := Language(i)
		if t == strings.ToLower(languageNames[i]) || t == languageCodes[i] {
			return l, nil
		}
	}
	return 0, fmt.Errorf("langid: unknown language %q", s)
}

// Sample is a labeled training or test example: a URL together with the
// ground-truth language of the page it points to. Content optionally holds
// the page body text; it is only ever populated for training samples in the
// "training on content" experiment (paper §7) and is never consulted when
// classifying test URLs.
type Sample struct {
	URL     string
	Lang    Language
	Content string
}

// Prediction is the outcome of one binary language classifier for one URL.
type Prediction struct {
	Lang Language
	// Score is a real-valued margin: positive values mean the classifier
	// believes the URL belongs to Lang. Scores from different algorithms
	// are not mutually comparable; only the sign and relative magnitude
	// within one classifier carry meaning.
	Score float64
	// Positive reports the classifier's binary decision.
	Positive bool
}

// The serving layers move classifications around as plain score arrays
// in canonical language order — the sign of a score IS the binary
// decision. These helpers are the single place that convention expands
// back into richer shapes, so snapshot, engine and classifier answers
// cannot drift apart.

// PredictionsFromScores expands a score vector into one Prediction per
// language in canonical order.
func PredictionsFromScores(scores [NumLanguages]float64) []Prediction {
	preds := make([]Prediction, NumLanguages)
	for li := range preds {
		preds[li] = Prediction{
			Lang:     Language(li),
			Score:    scores[li],
			Positive: scores[li] >= 0,
		}
	}
	return preds
}

// LanguagesFromScores returns the languages whose score means "yes",
// in canonical order.
func LanguagesFromScores(scores [NumLanguages]float64) []Language {
	var out []Language
	for li, s := range scores {
		if s >= 0 {
			out = append(out, Language(li))
		}
	}
	return out
}

// BestFromScores returns the top-scoring language (first wins ties), its
// score, and whether any language answered "yes".
func BestFromScores(scores [NumLanguages]float64) (Language, float64, bool) {
	bestI, any := 0, false
	for li, s := range scores {
		if s > scores[bestI] {
			bestI = li
		}
		any = any || s >= 0
	}
	return Language(bestI), scores[bestI], any
}

// TopTwoFromScores returns the highest- and second-highest-scoring
// languages. Ties resolve first-wins in canonical order, matching
// BestFromScores, so the pair is deterministic for equal scores.
//
//urllangid:hotpath
func TopTwoFromScores(scores [NumLanguages]float64) (best, second Language) {
	b, s := 0, 1
	if scores[s] > scores[b] {
		b, s = s, b
	}
	for li := 2; li < NumLanguages; li++ {
		switch {
		case scores[li] > scores[b]:
			b, s = li, b
		case scores[li] > scores[s]:
			s = li
		}
	}
	return Language(b), Language(s)
}

// MarginFromScores returns the score margin of a decision vector: the
// top score minus the runner-up score (top1−top2), always >= 0. This is
// the single "how confident is the winner" measure the serving stack
// shares — cascade escalation and calibration both key on it — and it
// is deliberately distinct from the *decision-threshold* margins inside
// the classifiers (relent.Trainer.Margin, core.Config.REMargin), which
// shift one binary classifier's yes/no cut rather than comparing
// languages against each other.
//
//urllangid:hotpath
func MarginFromScores(scores [NumLanguages]float64) float64 {
	best, second := TopTwoFromScores(scores)
	return scores[best] - scores[second]
}

// LabelSet is a compact set of languages, used where a URL is assigned
// multiple languages simultaneously.
type LabelSet uint8

// Add returns the set with l added.
func (s LabelSet) Add(l Language) LabelSet { return s | 1<<l }

// Has reports whether l is in the set.
//
//urllangid:hotpath
func (s LabelSet) Has(l Language) bool { return s&(1<<l) != 0 }

// Len returns the number of languages in the set.
func (s LabelSet) Len() int {
	n := 0
	for i := 0; i < NumLanguages; i++ {
		if s.Has(Language(i)) {
			n++
		}
	}
	return n
}

// Slice expands the set into a sorted slice of languages.
func (s LabelSet) Slice() []Language {
	out := make([]Language, 0, s.Len())
	for i := 0; i < NumLanguages; i++ {
		if s.Has(Language(i)) {
			out = append(out, Language(i))
		}
	}
	return out
}

// String renders the set as comma-separated ISO codes, e.g. "de,fr".
func (s LabelSet) String() string {
	var parts []string
	for _, l := range s.Slice() {
		parts = append(parts, l.Code())
	}
	if len(parts) == 0 {
		return "∅"
	}
	return strings.Join(parts, ",")
}
