// Serving a crawl frontier over HTTP: the paper's crawler scenario (§1)
// taken to production shape, including the retrain-and-redeploy loop.
//
// A language-targeted crawler holds millions of uncrawled URLs and asks,
// before every download, "is this page in my language?". This example
// builds the full serving stack the answering service needs:
//
//  1. train the paper's best classifier (NB/word) on a synthetic corpus,
//     compile it into a read-only snapshot — same answers bit-for-bit,
//     severalfold faster per URL — and write it to a model file exactly
//     as "urllangid compile" does;
//  2. load it into a versioned model registry next to a second model
//     (the training-free ccTLD+ baseline), and serve both over one HTTP
//     API with parallel batching and a sharded result cache;
//  3. drive the batch and streaming endpoints like a crawler would,
//     routing between the models with ?model=, and read the live model
//     list off /v1/models;
//  4. retrain, redeploy the model file, and hot-reload it with zero
//     downtime: POST /v1/models/nb/reload swaps the new version in
//     while in-flight requests drain on the old engine — no restart,
//     no dropped traffic (cmd/urllangid-serve triggers the same reload
//     on SIGHUP);
//  5. run the same workload in-process through the public
//     urllangid.Registry and Batcher — the no-HTTP embeddings of the
//     identical machinery.
//
// Everything runs in-process on a loopback listener; the model files
// live in a temp directory, stood in for a real deploy pipeline.
//
//	go run ./examples/server
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"urllangid"
	"urllangid/internal/datagen"
	"urllangid/internal/modelfile"
	"urllangid/internal/registry"
	"urllangid/internal/serve"
)

func main() {
	// 1. Train on directory-style URLs, exactly like examples/crawler,
	// compile, and deploy the snapshot to a model file.
	train := datagen.Generate(datagen.Config{
		Kind: datagen.ODP, Seed: 7, TrainPerLang: 4000, TestPerLang: 1,
	})
	clf, err := urllangid.Train(urllangid.Options{Seed: 7}, train.Train)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "urllangid-server")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	nbPath := filepath.Join(dir, "nb.snapshot")
	deploy(nbPath, clf.Compile())

	tldPath := filepath.Join(dir, "tld.model")
	baseline, err := urllangid.Train(urllangid.Options{Algorithm: urllangid.CcTLDPlus}, nil)
	if err != nil {
		log.Fatal(err)
	}
	deploy(tldPath, baseline)

	// 2. A registry holds both models under serving names; the first
	// loaded is the default route. Every slot gets its own engine from
	// the template (batch workers + result cache), and cmd/urllangid-serve
	// wires up exactly this stack from its -model flags.
	reg := registry.New(registry.Options{Engine: serve.Options{CacheCapacity: 1 << 16}})
	defer reg.Close()
	if _, err := reg.LoadFile("nb", nbPath); err != nil {
		log.Fatal(err)
	}
	if _, err := reg.LoadFile("tld", tldPath); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: serve.NewHandler(reg, serve.HandlerOptions{})}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	fmt.Println("GET /v1/models:")
	for _, m := range reg.Models() {
		fmt.Printf("  %-4s -> %s (%s, version %d, digest %.12s)\n", m.Name, m.Model, m.Mode, m.Version, m.Digest)
	}

	// 3a. A crawler checking a handful of frontier URLs in one batch —
	// once against the default model, once routed to the baseline.
	frontierBatch := []string{
		"http://www.wasserbett-heizung.de/kaufen",
		"http://www.annonces-immobilier.fr/paris",
		"http://www.ofertas-vuelos.es/madrid",
		"http://www.notizie-calcio.it/serie-a",
		"http://www.weather-report.com/forecast",
	}
	fmt.Println("\nPOST /v1/classify (batch, default model nb):")
	for _, r := range classifyBatch(base, "", frontierBatch) {
		fmt.Printf("  %-45s -> %s\n", r.URL, orDash(r.Languages))
	}
	fmt.Println("POST /v1/classify?model=tld (same batch, ccTLD+ baseline):")
	for _, r := range classifyBatch(base, "?model=tld", frontierBatch) {
		fmt.Printf("  %-45s -> %s\n", r.URL, orDash(r.Languages))
	}

	// 3b. A bulk frontier through the NDJSON stream — with repeats, the
	// way real frontiers repeat hosts. The frontier uploads while results
	// stream back (the endpoint is full duplex), so the client writes
	// through a pipe and reads concurrently.
	kinds := datagen.Generate(datagen.Config{Kind: datagen.WC, Seed: 99, TestPerLang: 200}).Test
	lines := 3 * len(kinds)
	pr, pw := io.Pipe()
	go func() {
		defer pw.Close()
		for round := 0; round < 3; round++ {
			for _, s := range kinds {
				if _, err := io.WriteString(pw, s.URL+"\n"); err != nil {
					return
				}
			}
		}
	}()
	resp, err := http.Post(base+"/v1/stream", "application/x-ndjson", pr)
	if err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	byLang := map[string]int{}
	for sc.Scan() {
		var r struct {
			Languages []string `json:"languages"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			log.Fatal(err)
		}
		if len(r.Languages) == 0 {
			byLang["-"]++
			continue
		}
		for _, l := range r.Languages {
			byLang[l]++
		}
	}
	resp.Body.Close()
	fmt.Printf("\nPOST /v1/stream: %d frontier lines classified; claims per language:\n  ", lines)
	for _, code := range []string{"en", "de", "fr", "es", "it", "-"} {
		fmt.Printf("%s=%d  ", code, byLang[code])
	}
	fmt.Println()

	// 3c. The cache did the heavy lifting on the repeated rounds.
	resp, err = http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	var stats struct {
		Name    string `json:"name"`
		Version int64  `json:"version"`
		serve.Snapshot
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nGET /stats: model %s v%d, %d URLs served, cache hit-rate %.0f%% (%d hits / %d misses), p50 %.0fµs\n",
		stats.Name, stats.Version, stats.URLs, 100*stats.CacheHitRate, stats.CacheHits, stats.CacheMisses, stats.LatencyP50Usec)

	// 4. The paper's deployment loop: retrain (here: a different seed
	// stands in for fresh crawl data), redeploy the file, hot-reload.
	// The swap is atomic — requests in flight keep their engine until
	// they finish, new requests get version 2 immediately.
	retrained, err := urllangid.Train(urllangid.Options{Seed: 8}, datagen.Generate(datagen.Config{
		Kind: datagen.ODP, Seed: 8, TrainPerLang: 4000, TestPerLang: 1,
	}).Train)
	if err != nil {
		log.Fatal(err)
	}
	deploy(nbPath, retrained.Compile())
	resp, err = http.Post(base+"/v1/models/nb/reload", "application/json", nil)
	if err != nil {
		log.Fatal(err)
	}
	var reload struct {
		Changed bool            `json:"changed"`
		Model   serve.ModelInfo `json:"model"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reload); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nPOST /v1/models/nb/reload after redeploy: changed=%v, now version %d (digest %.12s)\n",
		reload.Changed, reload.Model.Version, reload.Model.Digest)
	resp, err = http.Post(base+"/v1/models/nb/reload", "application/json", nil)
	if err != nil {
		log.Fatal(err)
	}
	reload.Changed = true
	if err := json.NewDecoder(resp.Body).Decode(&reload); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if !reload.Changed {
		fmt.Println("POST /v1/models/nb/reload again: no-op — unchanged file digests are skipped")
	}

	// 5. The same machinery without HTTP. A crawler embedding the
	// library uses the public Registry for named, hot-swappable models…
	pubReg := urllangid.NewRegistry(urllangid.RegistryOptions{CacheCapacity: 1 << 16})
	defer pubReg.Close()
	if _, err := pubReg.Load("nb", nbPath); err != nil {
		log.Fatal(err)
	}
	if _, err := pubReg.Install("baseline", baseline); err != nil {
		log.Fatal(err)
	}
	r, err := pubReg.Classify("nb", "http://www.wasserbett-heizung.de/kaufen")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nin-process Registry: nb claims %v; models:", r.Languages())
	for _, m := range pubReg.Models() {
		fmt.Printf(" %s(v%d)", m.Name, m.Version)
	}
	fmt.Println()

	// …or a Batcher when one fixed model is enough — parallel batches,
	// result cache, serving stats.
	model, err := openModel(nbPath)
	if err != nil {
		log.Fatal(err)
	}
	batcher := urllangid.NewBatcher(model,
		urllangid.WithCache(1<<16), urllangid.WithStats())
	frontier := make([]string, 0, 3*len(kinds))
	for round := 0; round < 3; round++ {
		for _, s := range kinds {
			frontier = append(frontier, s.URL)
		}
	}
	german := 0
	for _, res := range batcher.ClassifyBatch(frontier) {
		if res.Is(urllangid.German) {
			german++
		}
	}
	if bs, ok := batcher.Stats(); ok {
		fmt.Printf("in-process Batcher: %d frontier URLs, %d claimed German, cache hit-rate %.0f%%\n",
			len(frontier), german, 100*bs.CacheHitRate)
	}
}

// deploy writes a model to its serving path by rename, as a deploy
// pipeline must: the server keeps the old file mapped until the reload
// drains it.
func deploy(path string, m urllangid.Model) {
	if err := modelfile.WriteFile(path, m.Save); err != nil {
		log.Fatal(err)
	}
}

// openModel reads a model file through the public self-describing
// loader, as library embedders do.
func openModel(path string) (urllangid.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return urllangid.Open(f)
}

type wireResult struct {
	URL       string   `json:"url"`
	Languages []string `json:"languages"`
}

// classifyBatch posts one batch to /v1/classify with an optional
// ?model= query and returns the per-URL results.
func classifyBatch(base, query string, urls []string) []wireResult {
	body, _ := json.Marshal(map[string][]string{"urls": urls})
	resp, err := http.Post(base+"/v1/classify"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []wireResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	return out.Results
}

func orDash(langs []string) string {
	if len(langs) == 0 {
		return "-"
	}
	return strings.Join(langs, ",")
}
