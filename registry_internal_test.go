package urllangid

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"urllangid/internal/datagen"
	"urllangid/internal/serve"
)

// TestNoPinOutlivesItsCall checks the lease contract where the pinpair
// analyzer cannot: releases handed out as a func() by the registry's
// Resolve to the HTTP handlers, and the tier leases a cascade version
// holds, which Pins must leave out. Two models and a cascade over them
// go through every public Registry call and every HTTP route that pins
// a model, and after each call every slot must hold no pin. A leaked
// pin keeps a swapped-out version, and the file mapped under it, alive
// for the life of the process.
func TestNoPinOutlivesItsCall(t *testing.T) {
	samples := datagen.Generate(datagen.Config{
		Kind: datagen.ODP, Seed: 21, TrainPerLang: 200, TestPerLang: 1,
	}).Train
	r := NewRegistry(RegistryOptions{})
	defer r.Close()
	for _, tier := range []struct {
		name string
		opts Options
	}{{"fast", Options{Seed: 61}}, {"slow", Options{Algorithm: KNN, Seed: 61}}} {
		clf, err := Train(tier.opts, samples)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Install(tier.name, clf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.InstallCascade("casc", "fast", "slow", CascadeConfig{}); err != nil {
		t.Fatal(err)
	}
	noPins := func(after string) {
		t.Helper()
		for _, st := range r.reg.SlotStates() {
			if st.Pins != 0 {
				t.Fatalf("after %s: slot %q holds %d pins, want 0", after, st.Model.Name, st.Pins)
			}
		}
	}
	noPins("set-up")

	// The German URL is confident enough for the cascade's fast tier. A
	// URL with no tokens scores 0 for every language, and its zero
	// margin escalates to the slow tier.
	urls := []string{"http://www.nachrichten-wetter.de/zeitung", "http://"}
	names := []string{"fast", "slow", "casc"}
	for _, name := range names {
		for _, u := range urls {
			if _, err := r.Classify(name, u); err != nil {
				t.Fatal(err)
			}
			noPins("Classify on " + name)
		}
		if _, err := r.ClassifyBatch(name, urls); err != nil {
			t.Fatal(err)
		}
		noPins("ClassifyBatch on " + name)
		if _, err := r.Stats(name); err != nil {
			t.Fatal(err)
		}
		noPins("Stats on " + name)
	}

	h := serve.NewHandler(r.reg, serve.HandlerOptions{})
	call := func(method, target, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
		}
		noPins(method + " " + target)
		return rec.Body.Bytes()
	}
	for _, name := range names {
		call("POST", "/v1/classify?model="+name, `{"urls":["`+strings.Join(urls, `","`)+`"]}`)
		call("POST", "/v1/stream?model="+name, strings.Join(urls, "\n")+"\n")
		call("GET", "/stats?model="+name, "")
		call("GET", "/v1/models/"+name+"/stats", "")
	}
	call("GET", "/healthz", "")
	call("GET", "/metrics", "")

	var stats struct {
		Cascade struct {
			FastServed  int64 `json:"fast_served"`
			Escalations int64 `json:"escalations"`
		} `json:"cascade"`
	}
	if err := json.Unmarshal(call("GET", "/v1/models/casc/stats", ""), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cascade.FastServed == 0 || stats.Cascade.Escalations == 0 {
		t.Errorf("cascade served %d URLs on its fast tier and escalated %d; the check needs both paths",
			stats.Cascade.FastServed, stats.Cascade.Escalations)
	}
}
