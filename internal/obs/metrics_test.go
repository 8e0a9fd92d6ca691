package obs

import (
	"io"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentRecordAndScrape is the -race contract: N writers
// hammering counters, gauges and a histogram while a scraper
// continuously exposes the registry must be data-race-free, and no
// recorded increment may be lost.
func TestConcurrentRecordAndScrape(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 5000

	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() { // scraper
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}
	}()
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			// Half the writers share one label set, half get their own —
			// exercising both handle reuse and concurrent instance creation.
			label := Label{Key: "worker", Value: []string{"a", "b"}[w%2]}
			c := r.Counter("test_ops_total", "ops", label)
			g := r.Gauge("test_depth", "depth", label)
			h := r.Histogram("test_latency", "lat", 1, label)
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 1000))
				g.Add(-1)
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) { // concurrent get-or-create of the same handles
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("test_ops_total", "ops", Label{Key: "worker", Value: "a"})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraperDone

	total := r.Counter("test_ops_total", "ops", Label{Key: "worker", Value: "a"}).Value() +
		r.Counter("test_ops_total", "ops", Label{Key: "worker", Value: "b"}).Value()
	if total != writers*perWriter {
		t.Errorf("lost increments: %d, want %d", total, writers*perWriter)
	}
	ha := r.Histogram("test_latency", "lat", 1, Label{Key: "worker", Value: "a"})
	hb := r.Histogram("test_latency", "lat", 1, Label{Key: "worker", Value: "b"})
	if n := ha.Count() + hb.Count(); n != writers*perWriter {
		t.Errorf("lost observations: %d, want %d", n, writers*perWriter)
	}
}

// TestRecordZeroAlloc pins the hot-path contract: recording a sample on
// a resolved handle never touches the heap.
func TestRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	r := NewRegistry()
	c := r.Counter("alloc_ops_total", "ops", Label{Key: "m", Value: "x"})
	g := r.Gauge("alloc_depth", "depth")
	h := r.Histogram("alloc_latency", "lat", 1e-9)
	var tr Trace
	if avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Add(1)
		g.Add(-1)
		h.Observe(48211)
		tr.Add(StageEngine, 1234)
	}); avg > 0 {
		t.Errorf("record path allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		_ = h.Quantile(0.99)
	}); avg > 0 {
		t.Errorf("Quantile allocates %.2f/op, want 0", avg)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("gauge request against a counter family did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 41.5
	r.GaugeFunc("live_value", "read at scrape", func() float64 { return v })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "live_value 41.5") {
		t.Errorf("exposition missing func gauge:\n%s", b.String())
	}
	v = 42
	b.Reset()
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "live_value 42") {
		t.Errorf("func gauge not re-read at scrape:\n%s", b.String())
	}
}
