package obs

import (
	"io"
	"sync"
	"testing"
)

// TestConcurrentRecordAndScrape is the -race contract: N writers
// hammering counters, gauges and histograms while a scraper
// continuously exposes them must be data-race-free, and no recorded
// increment may be lost.
func TestConcurrentRecordAndScrape(t *testing.T) {
	const writers = 8
	const perWriter = 5000
	// Half the writers share one set of values, half the other.
	var counters [2]Counter
	var gauges [2]Gauge
	hists := [2]*Histogram{{Scale: 1}, {Scale: 1}}
	labels := [2][]Label{{{Key: "worker", Value: "a"}}, {{Key: "worker", Value: "b"}}}

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
				x := NewExpoWriter(io.Discard)
				x.Family("test_ops_total", "ops", KindCounter)
				for i := range counters {
					x.IntSample("test_ops_total", labels[i], counters[i].Value())
				}
				x.Family("test_depth", "depth", KindGauge)
				for i := range gauges {
					x.IntSample("test_depth", labels[i], gauges[i].Value())
				}
				x.Family("test_latency", "lat", KindHistogram)
				for i := range hists {
					x.HistogramSample("test_latency", labels[i], hists[i])
				}
				if err := x.Flush(); err != nil {
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
			c, g, h := &counters[w%2], &gauges[w%2], hists[w%2]
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 1000))
				g.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraperDone

	if total := counters[0].Value() + counters[1].Value(); total != writers*perWriter {
		t.Errorf("lost increments: %d, want %d", total, writers*perWriter)
	}
	if n := hists[0].Count() + hists[1].Count(); n != writers*perWriter {
		t.Errorf("lost observations: %d, want %d", n, writers*perWriter)
	}
	if d := gauges[0].Value() + gauges[1].Value(); d != 0 {
		t.Errorf("gauges read %d after balanced adds, want 0", d)
	}
}

// TestRecordZeroAlloc pins the hot-path contract: recording a sample
// never touches the heap.
func TestRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	var c Counter
	var g Gauge
	h := &Histogram{Scale: 1e-9}
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
