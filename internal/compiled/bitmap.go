package compiled

// The one ID path of the token families. Word, normal-form trigram and
// raw-trigram snapshots collect a URL's feature IDs into one
// per-scratch bitmap: a bit per vocabulary ID, a uint32 occurrence
// count per ID, and a summary word per 64 bitmap words, whose bits mark
// the bitmap words that hold an ID. Collecting an ID is three writes:
// nothing is appended, sorted or run-length encoded. A readout visits
// the set summary bits, then the set ID bits under them, so it walks
// the IDs in ascending order over only the words that hold one, and it
// clears each word and count as it reads them: the scratch goes back
// to its pool all zero.
//
// The linear modes (NB, ME, RE) read the bitmap straight into their
// scores: each ID's weight strip is added into the five accumulators
// as the ID is read, scaled by float64(float32(count)) — the value
// features.Scratch.Runs stores for the same IDs — divided under RE by
// the vector's total mass. These are the float64 operations
// linearScores performs on the Runs vector, in the same ascending ID
// order, so the scores are bit-identical. Decision-tree and kNN
// snapshots read the bitmap out as that sparse vector instead.

import (
	"math/bits"

	"urllangid/internal/langid"
)

// newBitmap sizes sc's bitmap for IDs below dim.
func (sc *scratch) newBitmap(dim uint32) {
	words := (dim + 63) / 64
	sc.marks = make([]uint64, words)
	sc.summary = make([]uint64, (words+63)/64)
	sc.counts = make([]uint32, dim)
}

// mark counts one occurrence of id.
//
//urllangid:hotpath
func (sc *scratch) mark(id uint32) {
	sc.counts[id]++
	sc.marks[id/64] |= 1 << (id % 64)
	sc.summary[id/(64*64)] |= 1 << (id / 64 % 64)
}

// tokenScores keeps each language's sum in a variable of its own, which
// the compiler holds in a register where an array element would be
// loaded and stored on every add. This declaration fails to compile
// unless there are five languages.
var _ [5 - langid.NumLanguages]struct{}

// tokenScores finalises the IDs marked in sc under the compiled linear
// mode, clearing the bitmap as it reads it.
//
//urllangid:hotpath
func (s *Snapshot) tokenScores(sc *scratch) [langid.NumLanguages]float64 {
	var out [langid.NumLanguages]float64
	div := 1.0
	switch s.mode {
	case modeCount:
		out = s.pre
	case modeNormalized:
		// An empty vector answers −margin; its bitmap is already clear.
		if div = sc.mass(); div <= 0 {
			return s.post
		}
	}
	divide := div != 1
	o0, o1, o2, o3, o4 := out[0], out[1], out[2], out[3], out[4]
	for i, sw := range sc.summary {
		sc.summary[i] = 0
		for ; sw != 0; sw &= sw - 1 {
			w := i*64 + bits.TrailingZeros64(sw)
			mw := sc.marks[w]
			sc.marks[w] = 0
			for ; mw != 0; mw &= mw - 1 {
				id := w*64 + bits.TrailingZeros64(mw)
				v := float64(float32(sc.counts[id]))
				sc.counts[id] = 0
				if divide {
					v /= div
				}
				ws := (*[langid.NumLanguages]float64)(s.weights[id*langid.NumLanguages:])
				o0 += v * ws[0]
				o1 += v * ws[1]
				o2 += v * ws[2]
				o3 += v * ws[3]
				o4 += v * ws[4]
			}
		}
	}
	out = [langid.NumLanguages]float64{o0, o1, o2, o3, o4}
	if s.mode != modeCount {
		for li := range out {
			out[li] += s.post[li]
		}
	}
	return out
}

// mass is the total of the marked IDs' float32 counts, summed in
// ascending ID order as linearScores sums a vector's values. Each term
// is a whole number and the total is below 2^53, so the sum is exact.
// It leaves the bitmap as it is.
func (sc *scratch) mass() float64 {
	var sum float64
	for i, sw := range sc.summary {
		for ; sw != 0; sw &= sw - 1 {
			w := i*64 + bits.TrailingZeros64(sw)
			for mw := sc.marks[w]; mw != 0; mw &= mw - 1 {
				sum += float64(float32(sc.counts[w*64+bits.TrailingZeros64(mw)]))
			}
		}
	}
	return sum
}

// vector reads the marked IDs out as the sparse vector
// features.Scratch.Runs encodes from them — ascending unique IDs with
// float32 counts — aliasing sc, and clears the bitmap.
func (sc *scratch) vector() ([]uint32, []float32) {
	sc.idx, sc.val = sc.idx[:0], sc.val[:0]
	for i, sw := range sc.summary {
		sc.summary[i] = 0
		for ; sw != 0; sw &= sw - 1 {
			w := i*64 + bits.TrailingZeros64(sw)
			mw := sc.marks[w]
			sc.marks[w] = 0
			for ; mw != 0; mw &= mw - 1 {
				id := w*64 + bits.TrailingZeros64(mw)
				sc.idx = append(sc.idx, uint32(id))
				sc.val = append(sc.val, float32(sc.counts[id]))
				sc.counts[id] = 0
			}
		}
	}
	return sc.idx, sc.val
}
