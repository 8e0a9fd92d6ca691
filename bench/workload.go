package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"

	"urllangid/internal/cascade"
	"urllangid/internal/evalx"
	"urllangid/internal/langid"
	"urllangid/internal/registry"
	"urllangid/internal/serve"
)

// Workload names.
const (
	crawlCascade = "crawl-cascade"
	crawlCached  = "crawl-cached"
	streamUnique = "stream-unique"
	lookupSingle = "lookup-single"
)

var workloadNames = []string{crawlCascade, crawlCached, streamUnique, lookupSingle}

const (
	// cacheEntries is the server's -cache on every workload. The crawl
	// and stream pools hold twice as many URLs, so a URL comes back only
	// after the cache has evicted it.
	cacheEntries = 131072
	crawlBatch   = 64
	// crawlRing is how far back a crawl repeat reaches: it re-draws one
	// of the last crawlRing fresh URLs, well inside the cache.
	crawlRing = 32768
	// crawlRepeatShare is the share of crawl URL slots that are repeats;
	// crawl-cached's hit ratio must land near it.
	crawlRepeatShare = 0.5
	streamLines      = 16384
	// The traced replay covers as many leading requests as hold
	// replayURLs URLs (2,048 crawl requests, 8 stream uploads), and at
	// most replayRequests: one pass over lookup-single's pool, enough
	// URLs that per-URL layer times resolve to a few nanoseconds.
	replayRequests = 10000
	replayURLs     = 131072
)

// request is one pre-generated request and the digest of the response
// the server must give it.
type request struct {
	body []byte
	urls []string
	sum  uint64
}

// workload is one traffic mix, fully generated before any timing.
type workload struct {
	name        string
	path        string // request path and query
	slot        string // the registry slot path routes to
	contentType string
	reqs        []request
	// pool is the labeled URL set the requests draw from; macro_f1
	// counts each of its URLs once.
	pool []langid.Sample
	// warmRequests is the least number of requests warm-up sends, and
	// warmURLs what the traced replay classifies before it starts: on
	// lookup-single both make every pool URL a cache hit.
	warmRequests int
	warmURLs     []string
	// refs holds the full reference responses of the first requests, for
	// the transport stub and the traced replay.
	refs [][]byte
}

// refSeed keys the response digests; set once, read by every client.
var refSeed = maphash.MakeSeed()

var cachedFlag = []byte(`,"cached":true`)

// matches reports whether body is the reference response with digest
// sum, ignoring only the "cached" flags a result cache adds.
func matches(body []byte, sum uint64) bool {
	if maphash.Bytes(refSeed, body) == sum {
		return true
	}
	if !bytes.Contains(body, cachedFlag) {
		return false
	}
	return maphash.Bytes(refSeed, bytes.ReplaceAll(body, cachedFlag, nil)) == sum
}

// newWorkload generates the named workload's requests from seed. The
// seed decides order, batching and repeats; the URL pool is the
// fixture's.
func newWorkload(name string, fx *fixture, seed uint64) (*workload, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	w := &workload{name: name, slot: "fast", path: "/v1/classify", contentType: "application/json"}
	switch name {
	case crawlCascade, crawlCached:
		pool, err := fx.wcPool()
		if err != nil {
			return nil, err
		}
		w.pool = pool
		if name == crawlCascade {
			w.slot, w.path = "cascade", "/v1/classify?model=cascade"
		}
		w.reqs = crawlRequests(shuffledURLs(pool, rng), rng)
	case streamUnique:
		pool, err := fx.wcPool()
		if err != nil {
			return nil, err
		}
		w.pool, w.path, w.contentType = pool, "/v1/stream", "application/x-ndjson"
		urls := shuffledURLs(pool, rng)
		for i := 0; i+streamLines <= len(urls); i += streamLines {
			chunk := urls[i : i+streamLines]
			var b bytes.Buffer
			for _, u := range chunk {
				line, err := json.Marshal(struct {
					URL string `json:"url"`
				}{u})
				if err != nil {
					return nil, err
				}
				b.Write(line)
				b.WriteByte('\n')
			}
			w.reqs = append(w.reqs, request{body: b.Bytes(), urls: chunk})
		}
	case lookupSingle:
		w.pool = fx.odp
		urls := shuffledURLs(fx.odp, rng)
		for _, u := range urls {
			body, err := json.Marshal(struct {
				URL string `json:"url"`
			}{u})
			if err != nil {
				return nil, err
			}
			w.reqs = append(w.reqs, request{body: body, urls: []string{u}})
		}
		w.warmRequests, w.warmURLs = len(urls), urls
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
	}
	return w, nil
}

func shuffledURLs(pool []langid.Sample, rng *rand.Rand) []string {
	urls := make([]string, len(pool))
	for i, s := range pool {
		urls[i] = s.URL
	}
	rng.Shuffle(len(urls), func(i, j int) { urls[i], urls[j] = urls[j], urls[i] })
	return urls
}

// crawlRequests builds the crawl frontier stream: every batch pairs each
// fresh URL with a repeat re-drawn from the last crawlRing fresh ones,
// so one pass over fresh is len(fresh)/32 requests.
func crawlRequests(fresh []string, rng *rand.Rand) []request {
	ring := make([]string, 0, crawlRing)
	pos := 0
	var reqs []request
	for next := 0; next+crawlBatch/2 <= len(fresh); {
		urls := make([]string, crawlBatch)
		for j := 0; j < crawlBatch; j += 2 {
			u := fresh[next]
			next++
			if len(ring) < crawlRing {
				ring = append(ring, u)
			} else {
				ring[pos] = u
				pos = (pos + 1) % crawlRing
			}
			urls[j], urls[j+1] = u, ring[rng.IntN(len(ring))]
		}
		body, err := json.Marshal(struct {
			URLs []string `json:"urls"`
		}{urls})
		if err != nil {
			panic(err) // a []string always marshals
		}
		reqs = append(reqs, request{body: body, urls: urls})
	}
	return reqs
}

// replayCount is how many leading requests the transport stub and the
// traced replay use.
func (w *workload) replayCount() int {
	n, urls := 0, 0
	for n < len(w.reqs) && n < replayRequests && urls+len(w.reqs[n].urls) <= replayURLs {
		urls += len(w.reqs[n].urls)
		n++
	}
	return max(n, 1)
}

// newRegistry loads the fixture's tier files into a registry shaped like
// the server's: fast (the default route), slow, and the cascade over
// them. workers 0 keeps the engine default.
func newRegistry(fx *fixture, cache, workers int) (*registry.Registry, error) {
	reg := registry.New(registry.Options{Engine: serve.Options{CacheCapacity: cache, Workers: workers}})
	if _, err := reg.LoadFile("fast", fx.fastPath); err != nil {
		reg.Close()
		return nil, err
	}
	if _, err := reg.LoadFile("slow", fx.slowPath); err != nil {
		reg.Close()
		return nil, err
	}
	if _, err := reg.InstallCascade("cascade", "fast", "slow", cascade.Config{}); err != nil {
		reg.Close()
		return nil, err
	}
	return reg, nil
}

// serveOnce runs one request through h in-process and returns the
// response body.
func serveOnce(h http.Handler, w *workload, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, w.path, bytes.NewReader(body))
	req.Header.Set("Content-Type", w.contentType)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", w.path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

// prepare computes, in-process and from the same model files the server
// loads, the reference response of every request (keeping the bytes of
// the first keep) and the macro-averaged F over the pool. The reference
// registry has no cache, so references carry no "cached" flags.
func (w *workload) prepare(fx *fixture, keep int) (macroF float64, err error) {
	reg, err := newRegistry(fx, 0, 1)
	if err != nil {
		return 0, err
	}
	defer reg.Close()
	h := serve.NewHandler(reg, serve.HandlerOptions{})
	lease, err := reg.Acquire(w.slot)
	if err != nil {
		return 0, err
	}
	defer lease.Release()
	eng := lease.Engine()

	w.refs = make([][]byte, keep)
	const goroutines = 2
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	counts := make([][langid.NumLanguages]evalx.Counts, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(w.reqs); i += goroutines {
				body, err := serveOnce(h, w, w.reqs[i].body)
				if err != nil {
					errs[g] = err
					return
				}
				w.reqs[i].sum = maphash.Bytes(refSeed, body)
				if i < keep {
					w.refs[i] = body
				}
			}
			for i := g; i < len(w.pool); i += goroutines {
				s := w.pool[i]
				r := eng.Classify(s.URL)
				for li := range counts[g] {
					counts[g][li].Observe(s.Lang == langid.Language(li), r.Is(langid.Language(li)))
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("reference responses: %w", err)
		}
	}
	var results []evalx.Result
	for li := 0; li < langid.NumLanguages; li++ {
		var c evalx.Counts
		for g := range counts {
			c.Merge(counts[g][li])
		}
		results = append(results, evalx.ResultFrom(langid.Language(li), c))
	}
	return evalx.MacroF(results), nil
}
