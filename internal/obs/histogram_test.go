package obs

import (
	"math"
	"testing"
)

// TestBucketBoundaries pins the log-linear layout: exact buckets below
// subCount, then subHalf linear sub-buckets per octave, with clamping
// at the top.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v         int64
		wantIdx   int
		wantLower int64
		wantUpper int64 // exclusive
	}{
		{0, 0, 0, 1},
		{1, 1, 1, 2},
		{127, 127, 127, 128}, // last exact bucket
		{128, 128, 128, 130}, // first sub-bucketed octave, width 2
		{129, 128, 128, 130},
		{130, 129, 130, 132},
		{255, 191, 254, 256}, // top of the e=7 octave
		{256, 192, 256, 260}, // e=8 octave, width 4
		{511, 255, 508, 512},
		{1 << 20, 960, 1 << 20, (1 << 20) + (1 << 14)}, // e=20: width 2^14
		{(1 << 42) - 1, numBuckets - 1, 0, 0},          // last in-range value
		{1 << 42, numBuckets - 1, 0, 0},                // clamped
		{int64(math.MaxInt64), numBuckets - 1, 0, 0},   // clamped
		{-5, 0, 0, 1}, // negative clamps to 0
	}
	for _, tc := range cases {
		idx := bucketIndex(tc.v)
		if idx != tc.wantIdx {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, idx, tc.wantIdx)
			continue
		}
		if tc.wantUpper == 0 {
			continue // clamp cases: bounds checked by the property loop below
		}
		if lo, up := bucketLower(idx), bucketUpper(idx); lo != tc.wantLower || up != tc.wantUpper {
			t.Errorf("bucket %d bounds = [%d, %d), want [%d, %d)", idx, lo, up, tc.wantLower, tc.wantUpper)
		}
	}
}

// TestBucketInvariants sweeps the whole bucket array: buckets tile the
// range contiguously, every in-range value maps into a bucket that
// contains it, and the midpoint estimate's relative error stays under
// 1/subCount (~0.8%) beyond the exact range.
func TestBucketInvariants(t *testing.T) {
	for i := 1; i < numBuckets; i++ {
		if bucketLower(i) != bucketUpper(i-1) {
			t.Fatalf("gap between buckets %d and %d: upper %d, next lower %d",
				i-1, i, bucketUpper(i-1), bucketLower(i))
		}
	}
	probe := []int64{0, 1, 2, 63, 127, 128, 200, 1000, 4096, 12345, 1 << 20, (1 << 30) + 7, 1 << 41, (1 << 42) - 1}
	for _, v := range probe {
		i := bucketIndex(v)
		if lo, up := bucketLower(i), bucketUpper(i); v < lo || v >= up {
			t.Errorf("value %d landed in bucket %d = [%d, %d)", v, i, lo, up)
		}
		if v >= subCount {
			if err := math.Abs(bucketMid(i)-float64(v)) / float64(v); err > 1.0/subCount {
				t.Errorf("value %d: midpoint %v relative error %v exceeds %v", v, bucketMid(i), err, 1.0/subCount)
			}
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{Scale: 1}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// 100 samples of value 1000: every quantile must land in 1000's
	// bucket (within the ~1% midpoint error).
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); math.Abs(got-1000) > 1000.0/subCount {
			t.Errorf("q%v = %v, want ≈1000", q, got)
		}
	}
	// Nearest-rank over a bimodal distribution: 90 fast, 10 slow.
	h2 := &Histogram{Scale: 1}
	for i := 0; i < 90; i++ {
		h2.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(100000)
	}
	if got := h2.Quantile(0.5); got != bucketMid(bucketIndex(10)) {
		t.Errorf("bimodal p50 = %v, want the fast mode", got)
	}
	if got := h2.Quantile(0.99); math.Abs(got-100000) > 100000.0/subCount {
		t.Errorf("bimodal p99 = %v, want ≈100000", got)
	}
	if h2.Count() != 100 || h2.Sum() != 90*10+10*100000 {
		t.Errorf("count/sum = %d/%d", h2.Count(), h2.Sum())
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram must read zero")
	}
}
