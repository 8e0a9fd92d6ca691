package features

// The streaming extraction layer: every extractor can map a raw URL to
// its feature vector through caller-owned scratch, with no urlx.Parts
// decomposition, no map-backed sparse builder, and no per-call garbage.
// ExtractInto is pinned bit-identical to ExtractURL(urlx.Parse(rawURL))
// by the equivalence tests — it replays the same membership tests and
// the same float32 accumulations, only reorganising where intermediate
// state lives. Both the uncompiled core.System scoring path and the
// compiled snapshots are built on this layer.

import (
	"slices"
	"strings"

	"urllangid/internal/ngram"
	"urllangid/internal/urlx"
	"urllangid/internal/vecspace"
)

// Scratch holds the reusable buffers of the streaming extraction path.
// A Scratch may be reused across calls and extractors but not
// concurrently; the vectors returned by ExtractInto alias its buffers
// and are only valid until the next use of the same Scratch.
type Scratch struct {
	norm  []byte    // urlx.NormalizeInto backing
	pad   []byte    // ngram.VisitTrigrams padding buffer
	ids   []uint32  // candidate feature IDs before run-length encoding
	idx   []uint32  // unique sorted indices (aliased by returned vectors)
	val   []float32 // matching values
	dense []float32 // custom dense vector backing
}

// NewScratch returns an empty scratch ready for use. The zero value
// works too; the constructor exists for symmetry with pools.
func NewScratch() *Scratch { return new(Scratch) }

// runs encodes the scratch's own collected candidate IDs.
func (sc *Scratch) runs() vecspace.Sparse {
	return sc.Runs(sc.ids)
}

// Runs sorts ids in place and run-length encodes them into the
// scratch's index/value buffers: one entry per unique ID with its
// occurrence count as a float32 — exactly the vector the map-backed
// Builder would freeze from repeated Add(id, 1) calls. The result
// aliases sc. It is the reference encoding of the model path: the
// compiled snapshots' kernel tests hold the vectors and scores their
// ID bitmaps read out to the vector Runs gives for the same IDs.
//
//urllangid:hotpath
func (sc *Scratch) Runs(ids []uint32) vecspace.Sparse {
	slices.Sort(ids)
	sc.idx, sc.val = sc.idx[:0], sc.val[:0]
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		sc.idx = append(sc.idx, ids[i])
		sc.val = append(sc.val, float32(j-i))
		i = j
	}
	return vecspace.Sparse{Idx: sc.idx, Val: sc.val}
}

// ExtractInto implements the streaming path for word features: tokens
// stream out of the normal form and resolve through the vocabulary with
// no intermediate slices. The result aliases sc.
//
//urllangid:hotpath
func (e *WordExtractor) ExtractInto(sc *Scratch, rawURL string) vecspace.Sparse {
	sc.ids = sc.ids[:0]
	urlx.VisitNormalizedTokens(urlx.NormalizeInto(&sc.norm, rawURL), func(tok string) {
		if i, ok := e.vocab.Lookup(tok); ok {
			sc.ids = append(sc.ids, i)
		}
	})
	return sc.runs()
}

// ExtractInto implements the streaming path for trigram features:
// tokens stream out of the normal form, expand to padded trigrams in
// scratch, and resolve through the vocabulary. The result aliases sc.
//
//urllangid:hotpath
func (e *TrigramExtractor) ExtractInto(sc *Scratch, rawURL string) vecspace.Sparse {
	sc.ids = sc.ids[:0]
	urlx.VisitNormalizedTokens(urlx.NormalizeInto(&sc.norm, rawURL), func(tok string) {
		ngram.VisitTrigrams(&sc.pad, tok, func(g string) {
			if i, ok := e.vocab.Lookup(g); ok {
				sc.ids = append(sc.ids, i)
			}
		})
	})
	return sc.runs()
}

// ExtractInto implements the streaming path for raw-URL trigrams. The
// result aliases sc.
//
//urllangid:hotpath
func (e *RawTrigramExtractor) ExtractInto(sc *Scratch, rawURL string) vecspace.Sparse {
	sc.ids = sc.ids[:0]
	VisitRawTrigrams(rawURL, func(g string) {
		if i, ok := e.vocab.Lookup(g); ok {
			sc.ids = append(sc.ids, i)
		}
	})
	return sc.runs()
}

// VisitRawTrigrams calls fn once per raw-URL trigram of rawURL — the
// cross-token-boundary variant the RawTrigramExtractor scores — in
// order. The grams match rawTrigrams exactly: whitespace-trimmed,
// lower-cased (Unicode-aware, as strings.ToLower), scheme stripped at
// the first "://". Inputs already lower-case ASCII walk with zero
// allocations; others pay one lowered-copy allocation, matching the
// training-time path.
//
//urllangid:hotpath
func VisitRawTrigrams(rawURL string, fn func(gram string)) {
	s := strings.TrimSpace(rawURL)
	if needsLowering(s) {
		s = strings.ToLower(s) //urllangid:ignore hotpathalloc guarded cold branch, lower-case ASCII input walks allocation-free
	}
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	for i := 0; i+3 <= len(s); i++ {
		fn(s[i : i+3])
	}
}

// needsLowering reports whether strings.ToLower(s) could differ from s:
// an upper-case ASCII letter, or any non-ASCII byte (whose rune might
// case-fold, and which ToLower re-encodes through UTF-8 validation).
func needsLowering(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= 'A' && c <= 'Z') || c >= 0x80 {
			return true
		}
	}
	return false
}
