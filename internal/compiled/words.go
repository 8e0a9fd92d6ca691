package compiled

// The word kernel: a word snapshot resolves each token of a URL with
// one probe of a packed index, where the string table would hash the
// token, read a slot, read two offsets and compare bytes in the blob.
// Every token urlx.VisitTokens emits is [a-z]{2,}, so a word of at
// most eight bytes is keyed by its bytes packed little-endian into a
// uint64: no byte is zero, so equal keys mean equal words, and the
// probe that finds the key has matched. A longer word is keyed by a
// 64-bit hash of its bytes with the low byte cleared, which no packed
// word has (its low byte is its first letter); a slot whose key and
// length match is confirmed against the table's blob. The index stores
// the table's own IDs, which go into the scratch's ID bitmap
// (bitmap.go) as the table would give them.

import (
	"math/bits"
	"unsafe"

	"urllangid/internal/strtab"
	"urllangid/internal/urlx"
)

// wordSlot is one 16-byte slot of the word index.
type wordSlot struct {
	// key is a short word's packed bytes, or a long word's hash with
	// its low byte clear; 0 in an empty slot.
	key uint64
	id  uint32 // table ID + 1; 0 marks an empty slot
	len uint32 // the word's length in bytes
}

// wordIndex is the word kernel's open-addressing index over a string
// table: a power-of-two count of slots, at least twice the indexed
// words, probed linearly from a multiplicative hash of the key. It
// shares the table's blob and offsets, which confirm long words.
type wordIndex struct {
	slots []wordSlot
	mask  uint64 // len(slots) - 1
	shift uint   // 64 - log2(len(slots)): the slot of key is key*wordMul >> shift
	blob  []byte
	offs  []uint32
}

// wordMul is the 64-bit golden-ratio multiplier the index hashes with.
const wordMul = 0x9e3779b97f4a7c15

// buildWordIndex indexes every table entry that is [a-z]{2,}. Other
// entries can never be emitted as tokens and stay unindexed. The
// table's entries must be unique, as New requires and Validate checks.
func buildWordIndex(t *strtab.Table) *wordIndex {
	blob, offs := t.Blob(), t.Offsets()
	n := 0
	for id := 0; id+1 < len(offs); id++ {
		if isWord(blob[offs[id]:offs[id+1]]) {
			n++
		}
	}
	size := 2
	for size < 2*n {
		size <<= 1
	}
	ix := &wordIndex{
		slots: make([]wordSlot, size),
		mask:  uint64(size - 1),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		blob:  blob,
		offs:  offs,
	}
	for id := 0; id+1 < len(offs); id++ {
		w := blob[offs[id]:offs[id+1]]
		if !isWord(w) {
			continue
		}
		// The blob is immutable; the view only feeds wordKey.
		key := wordKey(unsafe.String(unsafe.SliceData(w), len(w)))
		i := key * wordMul >> ix.shift
		for ix.slots[i].id != 0 {
			i = (i + 1) & ix.mask
		}
		ix.slots[i] = wordSlot{key: key, id: uint32(id) + 1, len: uint32(len(w))}
	}
	return ix
}

// isWord reports whether w is [a-z]{2,}, the shape of every token.
func isWord(w []byte) bool {
	if len(w) < 2 {
		return false
	}
	for _, c := range w {
		if c-'a' >= 26 {
			return false
		}
	}
	return true
}

// lookup resolves a token to its table ID. tok must be [a-z]{2,}, as
// every token urlx.VisitTokens emits from a normal form is.
//
//urllangid:hotpath
func (ix *wordIndex) lookup(tok string) (uint32, bool) {
	if len(tok) > 8 {
		return ix.lookupLong(tok)
	}
	key := packWord(tok)
	for i := key * wordMul >> ix.shift; ; i = (i + 1) & ix.mask {
		sl := &ix.slots[i]
		if sl.key == key {
			return sl.id - 1, true
		}
		if sl.id == 0 {
			return 0, false
		}
	}
}

// lookupLong is lookup for a token longer than eight bytes: the key
// and length filter the slots, and the blob confirms a candidate.
func (ix *wordIndex) lookupLong(tok string) (uint32, bool) {
	key, n := hashWord(tok), uint32(len(tok))
	for i := key * wordMul >> ix.shift; ; i = (i + 1) & ix.mask {
		sl := &ix.slots[i]
		if sl.key == key && sl.len == n {
			id := sl.id - 1
			if string(ix.blob[ix.offs[id]:ix.offs[id+1]]) == tok {
				return id, true
			}
		} else if sl.id == 0 {
			return 0, false
		}
	}
}

// wordKey is the index key of a word of two or more bytes, as lookup
// computes it.
func wordKey(w string) uint64 {
	if len(w) > 8 {
		return hashWord(w)
	}
	return packWord(w)
}

// packWord packs a word of two to eight bytes little-endian into a
// uint64, its first byte lowest, with two overlapping loads: the bytes
// they share are equal, so OR-ing them is exact.
func packWord(s string) uint64 {
	n := len(s)
	if n >= 4 {
		return uint64(load32(s)) | uint64(load32(s[n-4:]))<<(8*uint(n-4)&63)
	}
	return uint64(load16(s)) | uint64(load16(s[n-2:]))<<(8*uint(n-2)&63)
}

// hashWord is the key of a word longer than eight bytes: its length and
// its 8-byte blocks (the last one overlapping the one before) mixed
// into 64 bits, low byte cleared.
func hashWord(s string) uint64 {
	n := len(s)
	h := uint64(n)
	for i := 0; i+8 < n; i += 8 {
		h = mixWord(h ^ load64(s[i:]))
	}
	return mixWord(h^load64(s[n-8:])) &^ 0xff
}

// mixWord multiplies h by the golden ratio and folds its high half into
// its low half.
func mixWord(h uint64) uint64 {
	h *= wordMul
	return h ^ h>>32
}

// load16 and load32 read s's first two and four bytes little-endian.
func load16(s string) uint16 { return uint16(s[0]) | uint16(s[1])<<8 }

func load32(s string) uint32 {
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// load64 reads s's first eight bytes little-endian.
func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// collectTokens marks the IDs of the tokens of a URL in normal form in
// sc's bitmap, resolving them through the word index.
//
//urllangid:hotpath
func (s *Snapshot) collectTokens(norm string, sc *scratch) {
	ix := s.words
	urlx.VisitNormalizedTokens(norm, func(tok string) {
		if id, ok := ix.lookup(tok); ok {
			sc.mark(id)
		}
	})
}
