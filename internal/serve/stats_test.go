package serve

import (
	"testing"
	"time"
)

// TestLatencyPercentiles drives known durations into the latency
// histogram: the snapshot's percentiles must come back monotone and
// within the log-linear bucketing's ~1% relative error.
func TestLatencyPercentiles(t *testing.T) {
	s := NewStats()
	// 90 fast (10µs) and 10 slow (5ms) samples, the cascade shape that
	// makes p50 vs p99 worth separating.
	for i := 0; i < 90; i++ {
		s.latency.Observe(int64(10 * time.Microsecond))
	}
	for i := 0; i < 10; i++ {
		s.latency.Observe(int64(5 * time.Millisecond))
	}
	snap := s.TakeSnapshot(0)
	within := func(got, want float64) bool {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= want*0.01
	}
	if !within(snap.LatencyP50Usec, 10) {
		t.Errorf("p50 = %vµs, want ≈10µs", snap.LatencyP50Usec)
	}
	if !within(snap.LatencyP90Usec, 10) {
		t.Errorf("p90 = %vµs, want ≈10µs", snap.LatencyP90Usec)
	}
	if !within(snap.LatencyP99Usec, 5000) {
		t.Errorf("p99 = %vµs, want ≈5000µs", snap.LatencyP99Usec)
	}
}

// TestTakeSnapshotZeroAlloc pins the scrape cost: deriving a full
// snapshot — counters, ratios, recent QPS, three percentiles — must not
// touch the heap.
func TestTakeSnapshotZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	s := NewStats()
	now := time.Now()
	for i := 0; i < 5000; i++ {
		s.RecordBatch(now.Add(-time.Duration(i)*time.Microsecond), 64, i%65, true)
	}
	var sink Snapshot
	if avg := testing.AllocsPerRun(100, func() {
		sink = s.TakeSnapshot(42)
	}); avg > 0 {
		t.Errorf("TakeSnapshot allocates %.2f/op, want 0", avg)
	}
	_ = sink
}

// BenchmarkTakeSnapshot is the allocs-per-scrape pin in benchmark form:
// run with -benchmem to see 0 allocs/op.
func BenchmarkTakeSnapshot(b *testing.B) {
	s := NewStats()
	now := time.Now()
	for i := 0; i < 100000; i++ {
		s.RecordBatch(now.Add(-time.Duration(i%10000)*time.Microsecond), 64, i%65, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink Snapshot
	for i := 0; i < b.N; i++ {
		sink = s.TakeSnapshot(42)
	}
	_ = sink
}

// BenchmarkRecordBatch measures the once-per-call recording cost: a
// clock read, a histogram observe and a few atomic adds — 0 allocs/op.
func BenchmarkRecordBatch(b *testing.B) {
	s := NewStats()
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.RecordBatch(start, 64, i%65, true)
	}
}

// TestQPSRecentExcludesPartialSecond fabricates bucket state directly:
// the current second is still filling, so its count must not contribute
// to the recent-QPS figure, while the immediately preceding complete
// seconds must.
func TestQPSRecentExcludesPartialSecond(t *testing.T) {
	for attempt := 0; attempt < 100; attempt++ {
		s := NewStats()
		now := time.Now().Unix()
		set := func(sec, count int64) {
			b := int(sec % secBuckets)
			s.bucketSec[b].Store(sec)
			s.bucketCount[b].Store(count)
		}
		set(now, 1000) // in-progress partial second: excluded
		set(now-1, 30) // complete seconds: included
		set(now-2, 50)
		set(now-int64(recentWindow.Seconds()), 20)   // oldest in-window second
		set(now-int64(recentWindow.Seconds())-3, 70) // outside the window

		snap := s.TakeSnapshot(0)
		if time.Now().Unix() != now {
			// A second boundary passed mid-test, shifting which buckets
			// count as complete; the fabricated state is stale. Redo.
			continue
		}
		want := float64(30+50+20) / recentWindow.Seconds()
		if snap.QPSRecent != want {
			t.Errorf("QPSRecent = %v, want %v", snap.QPSRecent, want)
		}
		return
	}
	t.Skip("clock crossed a second boundary on every attempt")
}

func TestQPSRecentEmpty(t *testing.T) {
	if snap := NewStats().TakeSnapshot(0); snap.QPSRecent != 0 {
		t.Errorf("idle QPSRecent = %v, want 0", snap.QPSRecent)
	}
}

// TestInFlightGauge pins the pairing contract.
func TestInFlightGauge(t *testing.T) {
	s := NewStats()
	s.IncInFlight()
	s.IncInFlight()
	s.DecInFlight()
	if got := s.InFlight(); got != 1 {
		t.Errorf("in-flight = %d, want 1", got)
	}
	if snap := s.TakeSnapshot(0); snap.InFlight != 1 {
		t.Errorf("snapshot in-flight = %d, want 1", snap.InFlight)
	}

	// A nil Stats must no-op rather than panic (engines without stats).
	var nilStats *Stats
	nilStats.RecordRequest()
	nilStats.IncInFlight()
	nilStats.DecInFlight()
	if nilStats.Latency() != nil {
		t.Error("nil Stats must expose a nil histogram")
	}
}
