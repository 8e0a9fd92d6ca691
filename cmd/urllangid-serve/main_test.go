package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"urllangid"
	"urllangid/internal/cascade"
	"urllangid/internal/datagen"
	"urllangid/internal/modelfile"
	"urllangid/internal/registry"
	"urllangid/internal/serve"
)

// writeModelFiles trains a small classifier and persists both a model
// file and a compiled snapshot file, as the documented CLI flow does.
func writeModelFiles(t *testing.T, seed uint64) (snapPath, modelPath string) {
	t.Helper()
	ds := datagen.Generate(datagen.Config{
		Kind: datagen.ODP, Seed: seed, TrainPerLang: 500, TestPerLang: 1,
	})
	clf, err := urllangid.Train(urllangid.Options{Seed: seed}, ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelPath = filepath.Join(dir, "nb.model")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Save(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	snapPath = filepath.Join(dir, "nb.snapshot")
	sf, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Compile().Save(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	return snapPath, modelPath
}

// redeploy replaces the served file dst with a copy of src by rename,
// the deploy contract for a file a server may have mapped.
func redeploy(t *testing.T, dst, src string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	err = modelfile.WriteFile(dst, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// newRegistryServer stands up the same registry + handler stack run()
// builds, without binding a real port or installing signal handlers.
func newRegistryServer(t *testing.T, models ...modelArg) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New(registry.Options{Engine: serve.Options{CacheCapacity: 1024}})
	t.Cleanup(func() { reg.Close() })
	for _, m := range models {
		if _, err := reg.LoadFile(m.name, m.path); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	t.Cleanup(srv.Close)
	return srv, reg
}

// TestServeFromSnapshotFile is the end-to-end acceptance path: snapshot
// file on disk -> registry -> HTTP API, exercising single, batch,
// stream and stats.
func TestServeFromSnapshotFile(t *testing.T) {
	snapPath, _ := writeModelFiles(t, 17)
	srv, _ := newRegistryServer(t, modelArg{name: "nb", path: snapPath})

	// Single classification.
	resp, err := http.Post(srv.URL+"/v1/classify", "application/json",
		strings.NewReader(`{"url": "http://www.nachrichten-wetter.de/zeitung"}`))
	if err != nil {
		t.Fatal(err)
	}
	var single struct {
		Model   string `json:"model"`
		Name    string `json:"name"`
		Results []struct {
			URL       string             `json:"url"`
			Languages []string           `json:"languages"`
			Scores    map[string]float64 `json:"scores"`
			Cached    bool               `json:"cached"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if single.Model != "NB/word" || single.Name != "nb" || len(single.Results) != 1 || len(single.Results[0].Scores) != 5 {
		t.Fatalf("single classify response: %+v", single)
	}

	// Batch with a repeat of the single URL: must be served from cache.
	resp, err = http.Post(srv.URL+"/v1/classify", "application/json",
		strings.NewReader(`{"urls": ["http://www.nachrichten-wetter.de/zeitung", "http://www.produits.fr/annonces"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(single.Results) != 2 {
		t.Fatalf("batch returned %d results", len(single.Results))
	}
	if !single.Results[0].Cached {
		t.Error("repeated URL not served from cache")
	}

	// NDJSON stream.
	var frontier bytes.Buffer
	urls := []string{
		"http://www.wasserbett-heizung.de/kaufen",
		"http://www.annonces-voiture.fr/occasion",
		"http://www.tienda-ofertas.es/rebajas",
	}
	for _, u := range urls {
		frontier.WriteString(u + "\n")
	}
	resp, err = http.Post(srv.URL+"/v1/stream", "application/x-ndjson", &frontier)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	streamed := 0
	for sc.Scan() {
		var r struct {
			URL string `json:"url"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		if r.URL != urls[streamed] {
			t.Errorf("stream order: got %q at %d", r.URL, streamed)
		}
		streamed++
	}
	resp.Body.Close()
	if streamed != len(urls) {
		t.Fatalf("streamed %d of %d", streamed, len(urls))
	}

	// Stats must report the cache hit and the live identity.
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Name string `json:"name"`
		Mode string `json:"compiled_mode"`
		serve.Snapshot
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Name != "nb" || stats.Mode != "linear" {
		t.Errorf("stats identity = %q/%q", stats.Name, stats.Mode)
	}
	if stats.CacheHits < 1 || stats.CacheHitRate <= 0 || stats.CacheHitRatio <= 0 {
		t.Errorf("stats cache figures: %+v", stats.Snapshot)
	}
	if stats.URLs != 6 {
		t.Errorf("stats URLs = %d, want 6", stats.URLs)
	}

	// Health carries the live model identity.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["name"] != "nb" || health["version"] != float64(1) {
		t.Errorf("healthz = %v", health)
	}
}

// TestMultiModelRoutingAndHotReload is the registry walkthrough over
// HTTP: two models under one server, ?model= routing, /v1/models
// listing, and a zero-downtime reload after redeploying a file.
func TestMultiModelRoutingAndHotReload(t *testing.T) {
	snapA, _ := writeModelFiles(t, 17)
	snapB, _ := writeModelFiles(t, 23)
	srv, _ := newRegistryServer(t,
		modelArg{name: "prod", path: snapA},
		modelArg{name: "canary", path: snapB},
	)

	classify := func(query string) (name string, scores map[string]float64) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/classify"+query, "application/json",
			strings.NewReader(`{"url": "http://www.nachrichten-wetter.de/zeitung"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify%s: status %d", query, resp.StatusCode)
		}
		var body struct {
			Name    string `json:"name"`
			Results []struct {
				Scores map[string]float64 `json:"scores"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Name, body.Results[0].Scores
	}
	defName, defScores := classify("")
	canaryName, canaryScores := classify("?model=canary")
	if defName != "prod" || canaryName != "canary" {
		t.Errorf("routing answered %s/%s, want prod/canary", defName, canaryName)
	}
	same := true
	for code, s := range defScores {
		same = same && canaryScores[code] == s
	}
	if same {
		t.Error("prod and canary answered identically; routing unproven")
	}

	resp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models  []serve.ModelInfo `json:"models"`
		Default string            `json:"default"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Default != "prod" || len(list.Models) != 2 || list.Models[0].Name != "prod" {
		t.Fatalf("models list = %+v", list)
	}

	// Redeploy canary's file with prod's model, reload over HTTP: the
	// canary route must answer with the new model immediately.
	redeploy(t, snapB, snapA)
	resp, err = http.Post(srv.URL+"/v1/models/canary/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var reload struct {
		Changed bool            `json:"changed"`
		Model   serve.ModelInfo `json:"model"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reload); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !reload.Changed || reload.Model.Version != 2 {
		t.Fatalf("reload = %+v", reload)
	}
	_, reloaded := classify("?model=canary")
	for code, s := range defScores {
		if reloaded[code] != s {
			t.Errorf("post-reload canary %s = %v, want prod's %v", code, reloaded[code], s)
		}
	}
}

func TestParseModelArg(t *testing.T) {
	cases := []struct {
		in         string
		name, path string
		wantErr    bool
	}{
		{in: "nb=models/nb.snapshot", name: "nb", path: "models/nb.snapshot"},
		{in: "canary = /tmp/b.model", name: "canary", path: "/tmp/b.model"},
		{in: "models/nb.snapshot", name: "nb", path: "models/nb.snapshot"},
		{in: "nb.model", name: "nb", path: "nb.model"},
		{in: "=path", wantErr: true},
		{in: "name=", wantErr: true},
		{in: "", wantErr: true},
		{in: "a/b=x.model", wantErr: true},            // '/' cannot route in a URL path
		{in: "models/we?ird.snapshot", wantErr: true}, // derived names validate too
		{in: "a#b=x.model", wantErr: true},
	}
	for _, tc := range cases {
		got, err := parseModelArg(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseModelArg(%q) accepted, got %+v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseModelArg(%q): %v", tc.in, err)
			continue
		}
		if got.name != tc.name || got.path != tc.path {
			t.Errorf("parseModelArg(%q) = %+v, want %s=%s", tc.in, got, tc.name, tc.path)
		}
	}
}

// TestReloadAll covers the SIGHUP handler's work loop: unchanged files
// are no-ops, changed files swap, and missing files keep serving.
func TestReloadAll(t *testing.T) {
	snapA, _ := writeModelFiles(t, 17)
	snapB, _ := writeModelFiles(t, 23)
	reg := registry.New(registry.Options{})
	defer reg.Close()
	if _, err := reg.LoadFile("a", snapA); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadFile("b", snapB); err != nil {
		t.Fatal(err)
	}
	// A cascade has no file of its own: reloadAll passes over it
	// without a word, and it follows its tiers' reloads by itself.
	if _, err := reg.InstallCascade("c", "a", "b", cascade.Config{Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	reloadAll(reg, &log)
	if got := log.String(); strings.Count(got, "unchanged") != 2 || strings.Contains(got, "reload c") {
		t.Errorf("no-op reloadAll log:\n%s", got)
	}

	// Redeploy b, delete a: one swap, one error, nothing stops serving.
	redeploy(t, snapB, snapA)
	os.Remove(snapA)
	log.Reset()
	reloadAll(reg, &log)
	got := log.String()
	if !strings.Contains(got, "reload b: now NB/word version 2") {
		t.Errorf("changed-file log:\n%s", got)
	}
	if !strings.Contains(got, "reload a:") || !strings.Contains(got, "still serving") {
		t.Errorf("missing-file log:\n%s", got)
	}
	if strings.Contains(got, "reload c") {
		t.Errorf("cascade logged as a reload:\n%s", got)
	}
	if len(reg.Models()) != 3 {
		t.Error("a slot vanished on reload failure")
	}
	if _, err := reg.Acquire("a"); err != nil {
		t.Errorf("slot a stopped serving after failed reload: %v", err)
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("no models accepted")
	}
	if err := run([]string{"-model", "m=" + filepath.Join(t.TempDir(), "missing")}, &out); err == nil {
		t.Error("missing model file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad")
	os.WriteFile(bad, []byte("junk"), 0o644)
	if err := run([]string{"-model", "m=" + bad}, &out); err == nil || !strings.Contains(err.Error(), "not a model file") {
		t.Errorf("junk model error = %v", err)
	}
	// Two flags resolving to one serving name must fail loudly, not
	// silently serve only the second: explicit duplicates and colliding
	// bare-path basenames.
	snapPath, _ := writeModelFiles(t, 17)
	dir2 := t.TempDir()
	other := filepath.Join(dir2, filepath.Base(snapPath))
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(other, data, 0o644)
	for _, args := range [][]string{
		{"-model", "m=" + snapPath, "-model", "m=" + other},
		{"-model", snapPath, "-model", other},
	} {
		if err := run(args, &out); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Errorf("run(%v) duplicate-name error = %v", args, err)
		}
	}
}

// TestRegistryMetricsAndReadyz drives the real registry stack through
// the observability endpoints: /readyz must go green once models are
// loaded, and /metrics must carry per-model families for every slot
// plus the registry's swap counters.
func TestRegistryMetricsAndReadyz(t *testing.T) {
	snapA, _ := writeModelFiles(t, 17)
	snapB, _ := writeModelFiles(t, 23)
	srv, _ := newRegistryServer(t,
		modelArg{name: "nb", path: snapA},
		modelArg{name: "exp", path: snapB},
	)

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz = %d, want 200", resp.StatusCode)
	}

	// Route one classify at each model so the per-model counters split.
	for _, q := range []string{"", "?model=exp"} {
		r, err := http.Post(srv.URL+"/v1/classify"+q, "application/json",
			strings.NewReader(`{"url": "http://www.wetter-bericht.de/heute"}`))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if got, want := resp.Header.Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; got != want {
		t.Errorf("Content-Type = %q, want %q", got, want)
	}
	text := body.String()
	for _, want := range []string{
		`urllangid_model_requests_total{model="nb"} 1`,
		`urllangid_model_requests_total{model="exp"} 1`,
		`urllangid_model_ready{model="nb"} 1`,
		`urllangid_model_ready{model="exp"} 1`,
		`urllangid_model_swaps_total{model="nb"} 1`,
		`urllangid_http_requests_total{path="/v1/classify",code="200"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// An empty registry is live but not ready.
	empty := registry.New(registry.Options{})
	t.Cleanup(func() { empty.Close() })
	esrv := httptest.NewServer(serve.NewHandler(empty, serve.HandlerOptions{}))
	t.Cleanup(esrv.Close)
	resp, err = http.Get(esrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("empty registry GET /readyz = %d, want 503", resp.StatusCode)
	}
}

// TestDebugHandler pins the -debug-addr surface: the pprof index and
// expvar answer on their documented paths.
func TestDebugHandler(t *testing.T) {
	srv := httptest.NewServer(debugHandler())
	t.Cleanup(srv.Close)
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestParseCascadeArg(t *testing.T) {
	good := []struct {
		in   string
		want cascadeArg
	}{
		{"casc=fast,slow", cascadeArg{name: "casc", fast: "fast", slow: "slow"}},
		{"casc=fast, slow, 0.8", cascadeArg{name: "casc", fast: "fast", slow: "slow", threshold: 0.8}},
	}
	for _, tc := range good {
		got, err := parseCascadeArg(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseCascadeArg(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{
		"", "casc", "casc=fast", "casc=fast,slow,oops", "casc=fast,slow,1.5",
		"casc=,slow", "casc=fast,", "=fast,slow", "a/b=fast,slow", "casc=fast,slow,0.5,extra",
	} {
		if _, err := parseCascadeArg(bad); err == nil {
			t.Errorf("parseCascadeArg(%q) accepted", bad)
		}
	}
	if got := (cascadeArg{}).thresholdOrDefault(); got != 0.9 {
		t.Errorf("default threshold = %v, want 0.9", got)
	}
	if got := (cascadeArg{threshold: 0.5}).thresholdOrDefault(); got != 0.5 {
		t.Errorf("explicit threshold = %v, want 0.5", got)
	}
}

// TestCascadeOverHTTP serves a cascade slot next to its tiers and pins
// the serving surface: classification routes through it, its stats
// carry the per-tier block, and /metrics exposes the tier families.
func TestCascadeOverHTTP(t *testing.T) {
	snapA, _ := writeModelFiles(t, 17)
	snapB, _ := writeModelFiles(t, 23)
	srv, reg := newRegistryServer(t,
		modelArg{name: "fast", path: snapA},
		modelArg{name: "slow", path: snapB},
	)
	if _, err := reg.InstallCascade("casc", "fast", "slow", cascade.Config{Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/v1/classify?model=casc", "application/json",
		strings.NewReader(`{"urls": ["http://www.wetter-bericht.de/heute", "http://www.example.com/x"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Model   string `json:"model"`
		Results []struct {
			Languages []string `json:"languages"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.Model != "cascade(fast→slow)" || len(body.Results) != 2 {
		t.Fatalf("cascade classify response: %+v", body)
	}

	resp, err = http.Get(srv.URL + "/v1/models/casc/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Cascade *struct {
			FastServed     int64   `json:"fast_served"`
			Escalations    int64   `json:"escalations"`
			EscalationRate float64 `json:"escalation_rate"`
		} `json:"cascade"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Cascade == nil {
		t.Fatal("cascade stats block missing")
	}
	if got := stats.Cascade.FastServed + stats.Cascade.Escalations; got != 2 {
		t.Errorf("cascade tier decisions = %d, want 2", got)
	}

	// Tier stats stay absent from a plain model's response.
	resp, err = http.Get(srv.URL + "/v1/models/fast/stats")
	if err != nil {
		t.Fatal(err)
	}
	var plain map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := plain["cascade"]; ok {
		t.Error("plain model stats grew a cascade block")
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`urllangid_model_fast_served_total{model="casc"}`,
		`urllangid_model_escalations_total{model="casc"}`,
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRunCountsEverySlot: the startup line counts every slot the
// server routes to, cascades included. An address that cannot be bound
// makes run return right after printing it.
func TestRunCountsEverySlot(t *testing.T) {
	snapA, _ := writeModelFiles(t, 17)
	snapB, _ := writeModelFiles(t, 23)
	var out bytes.Buffer
	err := run([]string{"-model", "a=" + snapA, "-model", "b=" + snapB, "-cascade", "c=a,b,0.5", "-addr", "127.0.0.1:-1"}, &out)
	if err == nil {
		t.Fatal("run bound an invalid address")
	}
	if !strings.Contains(out.String(), "serving 3 model(s)") {
		t.Errorf("startup log does not count three slots:\n%s", out.String())
	}
}

// TestRunRejectsBadCascades pins the -cascade startup failures: they
// surface before the listener binds, so a typo cannot boot a server
// with a dead slot.
func TestRunRejectsBadCascades(t *testing.T) {
	snapPath, _ := writeModelFiles(t, 17)
	var out bytes.Buffer
	if err := run([]string{"-model", "nb=" + snapPath, "-cascade", "casc=nb,missing"}, &out); err == nil ||
		!strings.Contains(err.Error(), "casc") {
		t.Errorf("run accepted a cascade over an unknown tier: %v", err)
	}
	if err := run([]string{"-model", "nb=" + snapPath, "-cascade", "nb=nb,nb"}, &out); err == nil ||
		!strings.Contains(err.Error(), "collides") {
		t.Errorf("run accepted a cascade colliding with a model name: %v", err)
	}
}
