package main

import (
	"bytes"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's size: two goroutines, each with its own
// connection, each sending its next request only after the previous
// answer arrived. A crawler's fetch workers wait for each answer the
// same way.
const clients = 2

// loop drives a workload's request stream at one base URL. Its position
// in the stream carries over from one phase to the next.
type loop struct {
	base  string
	w     *workload
	reqs  []request // the stream, cycled
	conns [clients]*http.Client
	next  atomic.Int64
	// hold, when set, asks the transport stub to take that long over
	// each answer (see holdHeader).
	hold time.Duration
}

func newLoop(base string, w *workload, reqs []request) *loop {
	l := &loop{base: base, w: w, reqs: reqs}
	for i := range l.conns {
		l.conns[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	return l
}

func (l *loop) close() {
	for _, c := range l.conns {
		c.CloseIdleConnections()
	}
}

// phase is what one phase of the loop observed.
type phase struct {
	elapsed           time.Duration
	attempted, failed int
	urls              int64           // URLs in correctly answered requests
	latencies         []time.Duration // every attempted request, sorted
}

// run sends requests for at least d and until the stream position has
// advanced by at least minRequests.
func (l *loop) run(d time.Duration, minRequests int) phase {
	end := l.next.Load() + int64(minRequests)
	start := time.Now()
	var mu sync.Mutex
	var p phase
	var wg sync.WaitGroup
	for _, c := range l.conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			var lat []time.Duration
			var attempted, failed int
			var urls int64
			for {
				// Claim the next position only to send it, so the stream
				// has no gaps: a skipped position would bring its
				// successors' repeats closer together.
				i := l.next.Load()
				if i >= end && time.Since(start) >= d {
					break
				}
				if !l.next.CompareAndSwap(i, i+1) {
					continue
				}
				r := &l.reqs[i%int64(len(l.reqs))]
				t0 := time.Now()
				ok := l.send(c, r, &buf)
				lat = append(lat, time.Since(t0))
				attempted++
				if ok {
					urls += int64(len(r.urls))
				} else {
					failed++
				}
			}
			mu.Lock()
			p.latencies = append(p.latencies, lat...)
			p.attempted += attempted
			p.failed += failed
			p.urls += urls
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	slices.Sort(p.latencies)
	return p
}

// send posts one request and checks the answer against its reference.
// Transport errors, non-200 answers and wrong bytes all fail.
func (l *loop) send(c *http.Client, r *request, buf *bytes.Buffer) bool {
	req, err := http.NewRequest(http.MethodPost, l.base+l.w.path, bytes.NewReader(r.body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", l.w.contentType)
	if l.hold > 0 {
		req.Header.Set(holdHeader, strconv.FormatInt(int64(l.hold), 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK && matches(buf.Bytes(), r.sum)
}

// quantile returns the q-quantile of sorted durations by nearest rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
