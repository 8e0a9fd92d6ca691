package compiled

// kNN compilation: each per-language reference sample packs into CSR
// arrays — row offsets over one contiguous index/value pair — with the
// reference squared norms precomputed (persisted, and checked against
// the values when a flat snapshot is verified). Scoring replays knn.Model.Score exactly: the same cosine
// merge in the same reference order, the same sort over the
// positive-similarity hits, the same top-k similarity-weighted vote —
// only the operands live in flat arrays and pooled scratch instead of
// per-call slices of sparse vectors.

import (
	"fmt"
	"math"
	"sort"

	"urllangid/internal/core"
	"urllangid/internal/knn"
	"urllangid/internal/langid"
)

// packedRefs is one language's reference sample in CSR form. Reference
// r's vector is idx[rows[r]:rows[r+1]] / val[rows[r]:rows[r+1]].
type packedRefs struct {
	rows []uint32
	idx  []uint32
	val  []float32
	// pos holds the binary labels as 0/1 bytes (not []bool) so a flat
	// container can persist and view the slice as a raw byte section.
	pos []uint8
	// norm[r] is reference r's squared L2 norm, accumulated over its
	// values in storage order — the identical float64 sum
	// vecspace.Cosine computes per call.
	norm []float64
	k    int32
}

// compileRefs packs all five per-language reference sets.
func (s *Snapshot) compileRefs(sys *core.System) error {
	for li := 0; li < langid.NumLanguages; li++ {
		m, ok := sys.Models[li].(*knn.Model)
		if !ok || len(m.X) == 0 || len(m.X) != len(m.Y) || m.K < 1 {
			return fmt.Errorf("model %d is not a memorised kNN reference set", li)
		}
		r := packedRefs{k: int32(m.K), rows: make([]uint32, 1, len(m.X)+1)}
		for _, x := range m.X {
			r.idx = append(r.idx, x.Idx...)
			r.val = append(r.val, x.Val...)
			r.rows = append(r.rows, uint32(len(r.idx)))
		}
		r.pos = packLabels(m.Y)
		r.computeNorms()
		s.refs[li] = r
	}
	return nil
}

// computeNorms fills norm from the packed values.
func (r *packedRefs) computeNorms() {
	r.norm = make([]float64, len(r.rows)-1)
	for i := range r.norm {
		var nb float64
		for _, v := range r.val[r.rows[i]:r.rows[i+1]] {
			nb += float64(v) * float64(v)
		}
		r.norm[i] = nb
	}
}

// score replays knn.Model.Score over the packed layout for one query
// vector (ascending unique indices). Hits accumulate in sc.hits.
func (r *packedRefs) score(qIdx []uint32, qVal []float32, sc *scratch) float64 {
	// The query's squared norm, accumulated in value order exactly as
	// vecspace.Cosine does per reference (the value is identical every
	// time, so hoisting it out of the loop changes nothing bit-wise).
	var na float64
	for _, v := range qVal {
		na += float64(v) * float64(v)
	}
	hits := sc.hits[:0]
	n := len(r.rows) - 1
	for ref := 0; ref < n; ref++ {
		lo, hi := int(r.rows[ref]), int(r.rows[ref+1])
		var dot float64
		for i, j := 0, lo; i < len(qIdx) && j < hi; {
			switch {
			case qIdx[i] == r.idx[j]:
				dot += float64(qVal[i]) * float64(r.val[j])
				i++
				j++
			case qIdx[i] < r.idx[j]:
				i++
			default:
				j++
			}
		}
		var sim float64
		if nb := r.norm[ref]; na != 0 && nb != 0 {
			sim = dot / math.Sqrt(na*nb)
		}
		if sim > 0 {
			hits = append(hits, knnHit{sim: sim, pos: r.pos[ref] != 0})
		}
	}
	sc.hits = hits
	if len(hits) == 0 {
		return -1
	}
	// sort.Slice, same comparator, same input order as the source model:
	// the (unstable) permutation — and with it any tie-breaking at the
	// k-th boundary — comes out identical.
	sort.Slice(hits, func(a, b int) bool { return hits[a].sim > hits[b].sim }) //urllangid:ignore hotpathalloc same comparator as the source model keeps tie-breaking bit-identical, kNN is documented off the 0-alloc contract
	k := int(r.k)
	if k > len(hits) {
		k = len(hits)
	}
	var pos, total float64
	for _, h := range hits[:k] {
		total += h.sim
		if h.pos {
			pos += h.sim
		}
	}
	if total == 0 {
		return -1
	}
	return pos/total - 0.5
}

// knnHit is one positive-similarity reference during kNN scoring.
type knnHit struct {
	sim float64
	pos bool
}

// knnScores scores the query vector (ascending unique indices) against
// all five packed reference sets.
func (s *Snapshot) knnScores(qIdx []uint32, qVal []float32, sc *scratch) [langid.NumLanguages]float64 {
	var out [langid.NumLanguages]float64
	for li := range out {
		out[li] = s.refs[li].score(qIdx, qVal, sc)
	}
	return out
}

// validate checks the CSR invariants scoring relies on: a well-formed
// monotonic row array covering the index/value pair, per-row strictly
// increasing indices (the cosine merge's precondition), one label per
// reference, and a positive k. Flat snapshots run it on first scoring
// touch.
func (r *packedRefs) validate() error {
	n := len(r.rows) - 1
	if n < 1 || r.rows[0] != 0 {
		return fmt.Errorf("compiled: kNN reference set has no rows")
	}
	if len(r.pos) != n {
		return fmt.Errorf("compiled: kNN labels cover %d of %d references", len(r.pos), n)
	}
	if len(r.idx) != len(r.val) {
		return fmt.Errorf("compiled: kNN index/value length mismatch %d != %d", len(r.idx), len(r.val))
	}
	if r.k < 1 {
		return fmt.Errorf("compiled: kNN k = %d", r.k)
	}
	for i := 1; i < len(r.rows); i++ {
		if r.rows[i] < r.rows[i-1] {
			return fmt.Errorf("compiled: kNN row offsets not monotonic at %d", i)
		}
	}
	if int(r.rows[n]) != len(r.idx) {
		return fmt.Errorf("compiled: kNN rows claim %d entries, have %d", r.rows[n], len(r.idx))
	}
	// Per-row strictly increasing indices: the cosine merge relies on it.
	for ref := 0; ref < n; ref++ {
		for j := int(r.rows[ref]) + 1; j < int(r.rows[ref+1]); j++ {
			if r.idx[j] <= r.idx[j-1] {
				return fmt.Errorf("compiled: kNN reference %d indices not increasing", ref)
			}
		}
	}
	for i, p := range r.pos {
		if p > 1 {
			return fmt.Errorf("compiled: kNN label %d is %d, want 0 or 1", i, p)
		}
	}
	return nil
}

// packLabels converts bool labels to their packed 0/1 byte form.
func packLabels(y []bool) []uint8 {
	out := make([]uint8, len(y))
	for i, p := range y {
		if p {
			out[i] = 1
		}
	}
	return out
}
