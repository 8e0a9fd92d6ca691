package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// The histogram is log-linear (HDR-style): values below 2^subBits get
// one bucket each (exact), and every octave above is split into
// subHalf linear sub-buckets, so the bucket width is always at most
// value/subHalf. Quantile estimates return bucket midpoints, bounding
// the relative error at 1/(2·subHalf) ≈ 0.8% — comfortably inside the
// "~1%" a latency percentile needs — while Observe stays two shifts,
// one bits.Len64 and three atomic adds: no locks, no floats, no
// allocations.
const (
	subBits  = 7             // 2^7 = 128 exact low buckets, 64 sub-buckets per octave
	subCount = 1 << subBits  // first-octave bucket count
	subHalf  = subCount >> 1 // linear sub-buckets per higher octave
	// maxExp caps the tracked range: values at or above 2^(maxExp+1)
	// clamp into the last bucket. At nanosecond resolution that is
	// ~73 minutes — any serving latency beyond it is an outage, not a
	// percentile.
	maxExp = 41
	// numBuckets is bucketIndex(max value)+1.
	numBuckets = (maxExp-subBits+1)*subHalf + subCount
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	e := bits.Len64(u) - 1
	if e > maxExp {
		return numBuckets - 1
	}
	return (e-subBits+1)*subHalf + int(u>>(e-(subBits-1)))
}

// bucketUpper is the exclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	if i < subCount {
		return int64(i) + 1
	}
	b := i / subHalf // ≥ 2 here
	e := b + subBits - 2
	sub := subHalf + i%subHalf
	return int64(sub+1) << (e - (subBits - 1))
}

// bucketLower is the inclusive lower bound of bucket i.
func bucketLower(i int) int64 {
	if i == 0 {
		return 0
	}
	if i < subCount {
		return int64(i)
	}
	b := i / subHalf
	e := b + subBits - 2
	sub := subHalf + i%subHalf
	return int64(sub) << (e - (subBits - 1))
}

// bucketMid is the quantile estimate reported for bucket i: the bucket
// midpoint, which halves the worst-case error of either bound.
func bucketMid(i int) float64 {
	return float64(bucketLower(i)+bucketUpper(i)) / 2
}

// Histogram records int64 samples (typically latency nanoseconds) into
// fixed log-linear buckets. All methods are safe for concurrent use;
// Observe is wait-free and allocation-free. The zero Histogram is ready
// to use, with Scale 1. Its ~19KB of buckets are embedded by value in
// the structs that own them, and every method takes a pointer.
type Histogram struct {
	// Scale converts recorded values to the exposed/derived unit: a
	// histogram recording nanoseconds exposed as Prometheus seconds has
	// Scale 1e-9. Zero means 1. Set before concurrent use.
	Scale   float64
	count   atomic.Int64
	sum     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

func (h *Histogram) scale() float64 {
	if h.Scale == 0 {
		return 1
	}
	return h.Scale
}

// Observe records one sample in raw units. Negative values clamp to 0.
// Nil-safe, so callers with optional stats need no branch.
//
//urllangid:hotpath
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of recorded samples in raw units.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the q-quantile (0 < q ≤ 1) in raw units, using the
// nearest-rank definition over bucket counts and reporting the matched
// bucket's midpoint. It allocates nothing: one pass over the fixed
// bucket array. Concurrent Observes may skew the answer by the handful
// of samples that land mid-walk, which is harmless for monitoring.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		if c := h.buckets[i].Load(); c != 0 {
			cum += c
			if cum >= rank {
				return bucketMid(i)
			}
		}
	}
	// Samples recorded after count was read; report the last non-empty
	// bucket seen.
	for i := numBuckets - 1; i >= 0; i-- {
		if h.buckets[i].Load() != 0 {
			return bucketMid(i)
		}
	}
	return 0
}
