package compiled

// The trigram kernel: a normal-form trigram snapshot turns a URL into
// its trigram IDs without hashing, probing or comparing a single gram.
// Every token urlx.VisitNormalizedTokens emits is [a-z]{2,}, so each
// padded trigram of ' '+token+' ' is three base-27 digits (' ' is 0,
// 'a'..'z' are 1..26). A rolling code walks the token once, and a dense
// index derived from the string table turns each code into the table's
// ID, which goes into the scratch's ID bitmap (bitmap.go).

import (
	"strings"

	"urllangid/internal/strtab"
	"urllangid/internal/urlx"
)

// trigramAlphabet lists the base-27 digits in order: a padded trigram
// of a [a-z]{2,} token draws every byte from it.
const trigramAlphabet = " abcdefghijklmnopqrstuvwxyz"

// trigramCodes is the number of base-27 trigram codes.
const trigramCodes = 27 * 27 * 27

// trigramIndex maps a trigram's base-27 code to its table ID plus one;
// 0 marks a trigram outside the vocabulary.
type trigramIndex [trigramCodes]uint32

// buildTrigramIndex indexes every table entry that is a trigram over
// ' ' and 'a'..'z'. Other entries can never be emitted by the kernel
// and stay unindexed.
func buildTrigramIndex(t *strtab.Table) *trigramIndex {
	ix := new(trigramIndex)
	blob, offs := t.Blob(), t.Offsets()
	for id := 0; id+1 < len(offs); id++ {
		g := blob[offs[id]:offs[id+1]]
		if len(g) != 3 {
			continue
		}
		code := 0
		for _, c := range g {
			d := strings.IndexByte(trigramAlphabet, c)
			if d < 0 {
				code = -1
				break
			}
			code = code*27 + d
		}
		if code >= 0 {
			ix[code] = uint32(id) + 1
		}
	}
	return ix
}

// collectTrigrams marks the IDs of the padded trigrams of a URL in
// normal form in sc's bitmap.
//
//urllangid:hotpath
func (s *Snapshot) collectTrigrams(norm string, sc *scratch) {
	urlx.VisitNormalizedTokens(norm, func(tok string) {
		code := uint32(tok[0] - 'a' + 1)
		for i := 1; i <= len(tok); i++ {
			var d uint32 // the closing pad
			if i < len(tok) {
				d = uint32(tok[i] - 'a' + 1)
			}
			code = code%(27*27)*27 + d
			if id := s.tri[code]; id != 0 {
				sc.mark(id - 1)
			}
		}
	})
}
