package main

import (
	"bytes"
	"hash/maphash"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWrongScoreCounted drives a stub that answers one request with one
// wrong score and another with a cache flag: the first counts as failed,
// the second as correct.
func TestWrongScoreCounted(t *testing.T) {
	ref := []byte(`{"model":"NB/word","name":"fast","version":1,"results":[{"url":"http://www.wetter.de/bericht","languages":["de"],"scores":{"de":0.5,"en":-1.25,"es":-2,"fr":-3,"it":-4}}]}` + "\n")
	w := &workload{name: "test", path: "/v1/classify", contentType: "application/json"}
	for _, body := range []string{`{"url":"a"}`, `{"url":"b"}`, `{"url":"c"}`} {
		w.reqs = append(w.reqs, request{body: []byte(body), urls: []string{body}, sum: maphash.Bytes(refSeed, ref)})
	}
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch string(body) {
		case `{"url":"a"}`:
			rw.Write(ref)
		case `{"url":"b"}`:
			rw.Write(bytes.Replace(ref, []byte(`"en":-1.25`), []byte(`"en":-1.5`), 1))
		case `{"url":"c"}`:
			rw.Write(bytes.Replace(ref, []byte(`"it":-4}`), []byte(`"it":-4},"cached":true`), 1))
		}
	}))
	defer srv.Close()

	l := newLoop(srv.URL, w, w.reqs)
	defer l.close()
	p := l.run(0, len(w.reqs))
	if p.attempted != 3 || p.failed != 1 || p.urls != 2 {
		t.Errorf("attempted %d, failed %d, correct URLs %d; want 3, 1, 2", p.attempted, p.failed, p.urls)
	}
}
