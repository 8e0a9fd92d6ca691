package registry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/datagen"
	"urllangid/internal/features"
	"urllangid/internal/langid"
	"urllangid/internal/modelfile"
	"urllangid/internal/serve"
)

// trainSystem builds a small NB/word system; distinct seeds produce
// distinct weights, so swapped versions answer distinguishably.
func trainSystem(t testing.TB, seed uint64) *core.System {
	t.Helper()
	ds := datagen.Generate(datagen.Config{
		Kind: datagen.ODP, Seed: seed, TrainPerLang: 300, TestPerLang: 1,
	})
	sys, err := core.Train(core.Config{Algo: core.NaiveBayes, Features: features.Words, Seed: seed}, ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func writeClassifierFile(t testing.TB, path string, sys *core.System) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := modelfile.WriteClassifier(f, sys); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryInstallAcquireModels(t *testing.T) {
	reg := New(Options{})
	defer reg.Close()

	snapA := compiled.FromSystem(trainSystem(t, 31))
	snapB := compiled.FromSystem(trainSystem(t, 41))
	if _, err := reg.Install("alpha", snapA, snapA.Describe(), snapA.Mode()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("beta", snapB, snapB.Describe(), snapB.Mode()); err != nil {
		t.Fatal(err)
	}

	// "" resolves the first-installed slot.
	l, err := reg.Acquire("")
	if err != nil {
		t.Fatal(err)
	}
	if l.Info().Name != "alpha" || l.Info().Version != 1 || l.Info().Mode != "linear" {
		t.Errorf("default lease info = %+v", l.Info())
	}
	u := "http://www.nachrichten-wetter.de/zeitung"
	if got, want := l.Engine().Classify(u).Scores(), snapA.Scores(u); got != want {
		t.Error("default slot does not serve alpha's model")
	}
	l.Release()

	l, err = reg.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l.Engine().Classify(u).Scores(), snapB.Scores(u); got != want {
		t.Error("beta slot does not serve beta's model")
	}
	l.Release()

	if _, err := reg.Acquire("gamma"); !errors.Is(err, serve.ErrUnknownModel) {
		t.Errorf("unknown name error = %v", err)
	}
	if _, err := reg.Install("", snapA, "x", "y"); err == nil {
		t.Error("empty name accepted")
	}

	models := reg.Models()
	if len(models) != 2 || models[0].Name != "alpha" || models[1].Name != "beta" {
		t.Errorf("Models() = %+v, want alpha (default) then beta", models)
	}
	for _, m := range models {
		if m.Digest != "" || m.Path != "" {
			t.Errorf("programmatic install %q carries file identity %q/%q", m.Name, m.Digest, m.Path)
		}
		if m.LoadedAt.IsZero() {
			t.Errorf("%q has no load time", m.Name)
		}
	}
}

func TestRegistryAcquireOnEmptyAndClosed(t *testing.T) {
	reg := New(Options{})
	if _, err := reg.Acquire(""); !errors.Is(err, serve.ErrNoModels) {
		t.Errorf("empty registry error = %v", err)
	}
	snap := compiled.FromSystem(trainSystem(t, 31))
	if _, err := reg.Install("m", snap, "NB/word", "linear"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Acquire("m"); !errors.Is(err, serve.ErrNoModels) {
		t.Errorf("closed registry error = %v", err)
	}
	if _, err := reg.Install("m2", snap, "NB/word", "linear"); err == nil {
		t.Error("closed registry accepted an install")
	}
	if err := reg.Close(); err != nil {
		t.Error("Close is not idempotent")
	}
}

func TestRegistryLoadFileAndReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.model")
	sysA, sysB := trainSystem(t, 31), trainSystem(t, 41)
	writeClassifierFile(t, path, sysA)

	reg := New(Options{Engine: serve.Options{Workers: 2, CacheCapacity: 64}})
	defer reg.Close()
	info, err := reg.LoadFile("m", path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Model != "NB/word" || info.Mode != "linear" || info.Path != path {
		t.Errorf("loaded info = %+v", info)
	}
	if len(info.Digest) != 64 {
		t.Errorf("digest = %q, want 64 hex chars", info.Digest)
	}

	// Unchanged file: reload is a no-op.
	got, changed, err := reg.Reload("m")
	if err != nil || changed {
		t.Fatalf("no-op reload = (%+v, %v, %v)", got, changed, err)
	}
	if got.Version != 1 {
		t.Errorf("no-op reload bumped version to %d", got.Version)
	}

	// Redeployed file: reload swaps and bumps the version.
	writeClassifierFile(t, path, sysB)
	got, changed, err = reg.Reload("m")
	if err != nil || !changed {
		t.Fatalf("effective reload = (%+v, %v, %v)", got, changed, err)
	}
	if got.Version != 2 || got.Digest == info.Digest {
		t.Errorf("reloaded info = %+v (old digest %.12s)", got, info.Digest)
	}
	u := "http://www.nachrichten-wetter.de/zeitung"
	l, err := reg.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if gotScores, want := l.Engine().Classify(u).Scores(), sysB.Scores(u); gotScores != want {
		t.Error("slot still serves the old model after reload")
	}
	l.Release()

	// Registry default ("") also reloads; a vanished file reports its error.
	if _, _, err := reg.Reload(""); err != nil {
		t.Errorf("default-name reload: %v", err)
	}
	os.Remove(path)
	if _, _, err := reg.Reload("m"); err == nil {
		t.Error("reload of a deleted file succeeded")
	}
	if _, _, err := reg.Reload("nope"); !errors.Is(err, serve.ErrUnknownModel) {
		t.Errorf("unknown reload error = %v", err)
	}
}

func TestRegistryReloadRejectsProgrammaticSlot(t *testing.T) {
	reg := New(Options{})
	defer reg.Close()
	snap := compiled.FromSystem(trainSystem(t, 31))
	if _, err := reg.Install("m", snap, "NB/word", "linear"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Reload("m"); !errors.Is(err, serve.ErrNotReloadable) {
		t.Errorf("reload of programmatic slot = %v", err)
	}
}

func TestRegistryLoadFileErrors(t *testing.T) {
	reg := New(Options{})
	defer reg.Close()
	if _, err := reg.LoadFile("m", filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.model")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := reg.LoadFile("m", empty)
	if err == nil || !strings.Contains(err.Error(), "not a model file (0 bytes") {
		t.Errorf("empty file error = %v", err)
	}
	// A headerless classifier gob, as releases before the container
	// header saved it, no longer loads and names the command to rerun.
	var gob bytes.Buffer
	if err := trainSystem(t, 31).Save(&gob); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(t.TempDir(), "legacy.model")
	if err := os.WriteFile(legacy, gob.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = reg.LoadFile("m", legacy)
	if err == nil || !strings.Contains(err.Error(), `"urllangid train"`) {
		t.Errorf("headerless gob error = %v", err)
	}
	if len(reg.Models()) != 0 {
		t.Error("failed load left a slot behind")
	}
}

// TestRegistryLeaseSurvivesSwap is the drain contract in miniature: a
// lease taken before a swap keeps classifying on the old engine, the
// new default answers with the new model immediately, and the old
// engine closes only after the lease releases.
func TestRegistryLeaseSurvivesSwap(t *testing.T) {
	reg := New(Options{Engine: serve.Options{Workers: 2}})
	defer reg.Close()
	snapA := compiled.FromSystem(trainSystem(t, 31))
	snapB := compiled.FromSystem(trainSystem(t, 41))
	if _, err := reg.Install("m", snapA, "NB/word", "linear"); err != nil {
		t.Fatal(err)
	}

	u := "http://www.produits-recherche.fr/annonces"
	held, err := reg.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("m", snapB, "NB/word", "linear"); err != nil {
		t.Fatal(err)
	}

	// The held lease still answers with A, a fresh acquire with B.
	if got := held.Engine().Classify(u).Scores(); got != snapA.Scores(u) {
		t.Error("held lease no longer serves the old version")
	}
	fresh, err := reg.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.Engine().Classify(u).Scores(); got != snapB.Scores(u) {
		t.Error("fresh lease does not serve the new version")
	}
	if fresh.Info().Version != 2 {
		t.Errorf("fresh lease version = %d, want 2", fresh.Info().Version)
	}
	fresh.Release()

	// The old engine is still functional until the last holder lets go.
	if got := held.Engine().Classify(u).Scores(); got != snapA.Scores(u) {
		t.Error("old engine died while still leased")
	}
	held.Release()
}

// TestRegistryReloadRejectsCorruptFile: a redeployed v3 file whose
// payload was damaged still parses, and its section digests are checked
// only on first use. Reload must check them before the swap: scoring
// the damaged payload panics on an engine helper goroutine, which
// nothing recovers, so a swapped-in corrupt file would end the process
// on its first multi-URL batch.
func TestRegistryReloadRejectsCorruptFile(t *testing.T) {
	snapA := compiled.FromSystem(trainSystem(t, 31))
	snapB := compiled.FromSystem(trainSystem(t, 41))
	path := filepath.Join(t.TempDir(), "live.model")
	writeSnapshotFile(t, path, snapA)

	reg := New(Options{Engine: serve.Options{Workers: 2}})
	defer reg.Close()
	if _, err := reg.LoadFile("m", path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapB.WriteFlat(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0xff
	if err := modelfile.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	info, changed, err := reg.Reload("m")
	if err == nil || changed {
		t.Errorf("reload of a corrupt file = (version %d, changed %v, %v), want an error", info.Version, changed, err)
	}
	l, err := reg.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	urls := make([]string, 64)
	for i := range urls {
		urls[i] = cascadeProbes[i%len(cascadeProbes)] + "/" + strconv.Itoa(i)
	}
	for i, res := range l.Engine().ClassifyBatch(urls) {
		if res.Scores() != snapA.Scores(urls[i]) {
			t.Fatalf("%s: the slot does not answer with the loaded version", urls[i])
		}
	}
	if v := l.Info().Version; v != 1 {
		t.Fatalf("slot serves version %d after a failed reload, want 1", v)
	}
}

// lockedBuffer is a bytes.Buffer safe for a server's error log, which
// writes from handler goroutines while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestCorruptModelFailsOnlyItsRequests: LoadFile leaves verification to
// the first score, so a model file with a damaged payload loads, and
// every batch on it panics, on its caller and on its helper. The panic
// ends the request, not the server: a /v1/classify batch and a
// /v1/stream upload on a Workers: 2 engine each lose their connection,
// and afterwards /healthz answers 200, the slot holds no pin, no
// request is counted in flight, and /metrics counts each failed request
// under its route with code 500.
func TestCorruptModelFailsOnlyItsRequests(t *testing.T) {
	var buf bytes.Buffer
	if err := compiled.FromSystem(trainSystem(t, 41)).WriteFlat(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0xff
	path := filepath.Join(t.TempDir(), "corrupt.model")
	if err := modelfile.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	reg := New(Options{Engine: serve.Options{Workers: 2}})
	defer reg.Close()
	if _, err := reg.LoadFile("m", path); err != nil {
		t.Fatal(err)
	}
	var errLog lockedBuffer
	srv := httptest.NewUnstartedServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	srv.Config.ErrorLog = log.New(&errLog, "", 0)
	srv.Start()
	defer srv.Close()

	urls := make([]string, 64)
	for i := range urls {
		urls[i] = cascadeProbes[i%len(cascadeProbes)] + "/" + strconv.Itoa(i)
	}
	body, err := json.Marshal(map[string][]string{"urls": urls})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct{ path, body string }{
		{"/v1/classify?model=m", string(body)},
		{"/v1/stream?model=m", strings.Join(urls, "\n")},
	} {
		resp, err := http.Post(srv.URL+req.path, "application/json", strings.NewReader(req.body))
		if err == nil {
			out, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				t.Errorf("%s on a corrupt model answered %s: %.80s", req.path, resp.Status, out)
			}
		}
	}
	if n := strings.Count(errLog.String(), "scoring unverified flat snapshot"); n != 2 {
		t.Errorf("server logged %d scoring panics, want 2:\n%s", n, errLog.String())
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz answered %d after the panics", code)
	}
	for _, st := range reg.SlotStates() {
		if st.Pins != 0 {
			t.Errorf("slot %s holds %d pins after the panics", st.Model.Name, st.Pins)
		}
	}
	_, metrics := get("/metrics")
	for _, want := range []string{
		"\nurllangid_http_in_flight 1\n", // the scrape itself
		"\nurllangid_model_in_flight{model=\"m\"} 0\n",
		"\nurllangid_http_requests_total{path=\"/v1/classify\",code=\"500\"} 1\n",
		"\nurllangid_http_requests_total{path=\"/v1/stream\",code=\"500\"} 1\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
}

// TestStreamReloadReachesStalledUpload: a /v1/stream request pins its
// model only while it scores a batch. While its upload stalls, a reload
// of its slot runs the retired version's closer at once, without
// waiting for the client, and the stream's next batch is answered by
// the new version.
func TestStreamReloadReachesStalledUpload(t *testing.T) {
	snapA := compiled.FromSystem(trainSystem(t, 31))
	snapB := compiled.FromSystem(trainSystem(t, 41))
	path := filepath.Join(t.TempDir(), "live.model")
	writeSnapshotFile(t, path, snapB)

	reg := New(Options{})
	defer reg.Close()
	// Version 1 is snapA with a counted closer, installed as if it had
	// been loaded from path; the file holds snapB, so Reload swaps.
	var closes atomic.Int64
	m := &trackedModel{Snapshot: snapA, closes: &closes, fail: t.Errorf}
	if _, err := reg.install("m", m, serve.ModelInfo{Name: "m", Model: snapA.Describe(), Mode: snapA.Mode(), Path: path, Digest: "version 1"}, m.close); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	defer srv.Close()

	pr, pw := io.Pipe()
	defer pw.Close()
	go io.WriteString(pw, cascadeProbes[0]+"\n")
	resp, err := http.Post(srv.URL+"/v1/stream?model=m", "application/x-ndjson", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := bufio.NewReader(resp.Body)
	// The first result arrives while the upload is open: the handler
	// now waits on the body.
	if got := streamScores(t, out); got != snapA.Scores(cascadeProbes[0]) {
		t.Fatalf("first batch: %v, want version 1's answer", got)
	}
	if _, changed, err := reg.Reload("m"); err != nil || !changed {
		t.Fatalf("reload = (%v, %v), want a swap", changed, err)
	}
	if n := closes.Load(); n != 1 {
		t.Fatalf("retired version closed %d times while the upload stalls, want 1", n)
	}
	go func() {
		io.WriteString(pw, cascadeProbes[1]+"\n")
		pw.Close()
	}()
	if got := streamScores(t, out); got != snapB.Scores(cascadeProbes[1]) {
		t.Fatalf("batch after the reload: %v, want the reloaded version's answer", got)
	}
}

// streamScores reads one /v1/stream result line and returns its scores.
func streamScores(t *testing.T, out *bufio.Reader) [langid.NumLanguages]float64 {
	t.Helper()
	line, err := out.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading a result line: %v", err)
	}
	var res struct {
		Scores map[string]float64 `json:"scores"`
	}
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	var scores [langid.NumLanguages]float64
	for i := range scores {
		scores[i] = res.Scores[langid.Language(i).Code()]
	}
	return scores
}
