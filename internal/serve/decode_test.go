package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"urllangid/internal/datagen"
)

// classifyBodies are /v1/classify bodies: the shapes the strict parser
// accepts first, then inputs it must hand to encoding/json.
var (
	plainClassifyBodies = []string{
		`{"url":"http://www.wetter.de/bericht"}`,
		`{"urls":["http://a.de/x","http://b.fr/y","http://a.de/x"]}`,
		`{"url":"http://a.de/x","urls":["http://b.fr/y"]}`,
		`{"urls":["http://b.fr/y"],"url":"http://a.de/x"}`,
		" \t\r\n{ \"url\" : \"http://a.de/x?q=1&r=<2>\" , \"urls\" : [ \"\" , \"x\" ] }\n ",
		`{"url":""}`,
	}
	fallbackClassifyBodies = []string{
		`{}`,
		`{"urls":[]}`,
		`{"url":"http:\/\/www.wetter.de\/bericht"}`,
		`{"urls":["http://a.de/?a=1\u0026b=2"]}`,
		`{"url":"http://ünïcode.de/ページ"}`,
		"{\"url\":\"http://a.de/\xff\"}",
		"{\"url\":\"http://a.de/\x7f\"}",
		"{\"url\":\"tab\there\"}",
		`{"URLS":["http://a.de/x"]}`,
		`{"Url":"http://a.de/x"}`,
		`{"url":"http://a.de/x","url":"http://b.de/y"}`,
		`{"urls":["http://a.de/x"],"urls":[]}`,
		`null`,
		`{"url":null}`,
		`{"urls":null}`,
		`{"urls":["http://a.de/x",null]}`,
		`{"url":"http://a.de/x","model":"fast"}`,
		`{"url":"http://a.de/x"} trailing`,
		`{"url":"http://a.de/x"}{"url":"http://b.de/y"}`,
		`{"urls":["http://a.de/x",]}`,
		`{"url":"http://a.de/x",}`,
		`{"urls":["http://a.de/x"`,
		`{"url":"http://a.`,
		`{"url"`,
		`{`,
		``,
		`   `,
		`{not json`,
		`[]`,
		`"http://a.de/x"`,
		`{"url":5}`,
		`{"urls":"http://a.de/x"}`,
		`{"urls":[5]}`,
	}
)

// TestParseClassifyShapes pins which bodies the strict parser takes:
// every plain shape, including the bodies the serving benchmark sends
// (json.Marshal'd 64-URL batches of WC URLs and single ODP URLs), so
// the fast path really runs; and none of the fallback inputs.
func TestParseClassifyShapes(t *testing.T) {
	plain := append([]string(nil), plainClassifyBodies...)
	urls := wcURLs(t, 4096)
	for i := 0; i+64 <= len(urls); i += 64 {
		plain = append(plain, string(classifyBody(urls[i:i+64])))
	}
	for _, s := range datagen.Generate(datagen.Config{Kind: datagen.ODP, Seed: 41, TestPerLang: 400}).Test {
		body, err := json.Marshal(struct {
			URL string `json:"url"`
		}{s.URL})
		if err != nil {
			t.Fatal(err)
		}
		plain = append(plain, string(body))
	}
	for _, body := range plain {
		if _, ok := parseClassify([]byte(body)); !ok {
			t.Errorf("parseClassify rejects plain body %.200q", body)
		}
	}
	for _, body := range fallbackClassifyBodies {
		if _, ok := parseClassify([]byte(body)); ok {
			t.Errorf("parseClassify accepts %q, which must fall back", body)
		}
	}
}

// TestDecodeClassifyLargeBody: strict-shaped bodies at and over the
// read-ahead cap, which only their size sends to encoding/json, decode
// as encoding/json decodes them, also under the handler's byte cap.
func TestDecodeClassifyLargeBody(t *testing.T) {
	for _, size := range []int{maxPooledEncBuf, maxPooledEncBuf + 1, 3 * maxPooledEncBuf} {
		prefix := `{"url":"http://a.de/`
		body := []byte(prefix + strings.Repeat("x", size-len(prefix)-2) + `"}`)
		if _, ok := parseClassify(body); !ok {
			t.Fatalf("%d-byte body is not in the strict shape", size)
		}
		what := fmt.Sprintf("%d-byte body", size)
		checkDecodeClassify(t, what, func() io.Reader { return bytes.NewReader(body) })
		checkDecodeClassify(t, what+", capped", func() io.Reader {
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), int64(size-1))
		})
	}
}

// referenceDecode is the /v1/classify decode before the strict parser.
func referenceDecode(r io.Reader) (classifyRequest, error) {
	var req classifyRequest
	err := json.NewDecoder(r).Decode(&req)
	return req, err
}

// checkDecodeClassify compares decodeClassify with encoding/json over
// the readers mk returns, one fresh reader per call.
func checkDecodeClassify(t *testing.T, what string, mk func() io.Reader) {
	t.Helper()
	got, gotErr := decodeClassify(mk())
	want, wantErr := referenceDecode(mk())
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, encoding/json %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %#v, encoding/json %#v", what, got, want)
	}
	var gotTooLarge, wantTooLarge *http.MaxBytesError
	if errors.As(gotErr, &gotTooLarge) != errors.As(wantErr, &wantTooLarge) {
		t.Fatalf("%s: MaxBytesError %v, encoding/json %v", what, gotErr, wantErr)
	}
}

// FuzzDecodeClassify pins decodeClassify to json.NewDecoder(…).Decode:
// the same request and the same error text for every body, whether the
// body arrives in one read, a byte at a time, or through the handler's
// byte cap (whose *http.MaxBytesError must survive the fallback).
func FuzzDecodeClassify(f *testing.F) {
	for _, body := range append(plainClassifyBodies, fallbackClassifyBodies...) {
		f.Add([]byte(body), uint16(0))
		f.Add([]byte(body), uint16(len(body)/2+1))
	}
	f.Add(classifyBody(wcURLs(f, 64)), uint16(0))
	f.Add(classifyBody(wcURLs(f, 64)), uint16(1000))
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		checkDecodeClassify(t, "whole body", func() io.Reader { return bytes.NewReader(body) })
		checkDecodeClassify(t, "byte reads", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(body)) })
		readErr := errors.New("connection reset")
		checkDecodeClassify(t, "read error", func() io.Reader {
			return io.MultiReader(bytes.NewReader(body), iotest.ErrReader(readErr))
		})
		if limit > 0 {
			checkDecodeClassify(t, "capped", func() io.Reader {
				return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), int64(limit))
			})
		}
	})
}

// streamLines are /v1/stream lines: strict shapes, then inputs that
// must go to parseStreamLine.
var (
	plainStreamLines = []string{
		`{"url":"http://www.wetter.de/bericht"}`,
		"{ \"url\" :\t\"http://a.de/x\" }\r\n",
		`{"urls":["http://b.fr/y"],"url":"http://a.de/x"}`,
		`"http://b.fr/y"`,
		`""`,
		`"http://b.fr/y"  `,
		"http://bare.it/z",
		" http://bare.it/z",
		"http://bare.it/\xff",
	}
	fallbackStreamLines = []string{
		`{"url":"http:\/\/www.wetter.de\/bericht"}`,
		`{"url":"http://a.de/?a=1\u0026b=2"}`,
		`"http:\/\/b.fr\/y"`,
		`{"url":"http://ünïcode.de/"}`,
		"\"http://b.fr/\xff\"",
		`{"URL":"http://a.de/x"}`,
		`{"url":"http://a.de/x","url":"http://b.de/y"}`,
		`{"url":null}`,
		`{"url":""}`,
		`{"url":"http://a.de/x","id":7}`,
		`{"id":7}`,
		`{"urls":["http://b.fr/y"]}`,
		`{}`,
		`{"url":"http://a.de/x"} trailing`,
		`"http://b.fr/y" trailing`,
		"\"http://b.fr/y\"\v",
		`{"url":"http://a.de/x",}`,
		`{"url":"http://a.de/x"`,
		`"http://b.fr/y`,
		`{`,
		`"`,
		`{"url":5}`,
	}
)

// TestPlainStreamLineShapes pins which lines the strict parser takes,
// among them every {"url":…} line of the serving benchmark's WC upload.
func TestPlainStreamLineShapes(t *testing.T) {
	plain := append([]string(nil), plainStreamLines...)
	upload := bytes.TrimSuffix(streamBody(wcURLs(t, 4096)), []byte{'\n'})
	for _, line := range bytes.Split(upload, []byte{'\n'}) {
		plain = append(plain, string(line))
	}
	for _, line := range plain {
		if _, ok := plainStreamLine([]byte(line)); !ok {
			t.Errorf("plainStreamLine rejects plain line %q", line)
		}
	}
	for _, line := range fallbackStreamLines {
		if _, ok := plainStreamLine([]byte(line)); ok {
			t.Errorf("plainStreamLine accepts %q, which must fall back", line)
		}
	}
}

// FuzzStreamLine pins streamLineURL to parseStreamLine, the
// encoding/json reference it falls back to: the same URL and the same
// error text for every non-empty line.
func FuzzStreamLine(f *testing.F) {
	for _, line := range append(plainStreamLines, fallbackStreamLines...) {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if len(line) == 0 {
			return // the handler skips blank lines before parsing
		}
		got, gotErr := streamLineURL(line)
		want, wantErr := parseStreamLine(string(line))
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("streamLineURL(%q) = %q, %v; parseStreamLine = %q, %v", line, got, gotErr, want, wantErr)
		}
	})
}

// TestDecodedURLsAreFresh pins that decoded URLs never alias the pooled
// read buffer: the engine's cache keeps them, and an alias would both
// pin the buffer and change under the next request.
func TestDecodedURLsAreFresh(t *testing.T) {
	req, err := decodeClassify(strings.NewReader(`{"url":"http://a.de/x","urls":["http://b.fr/y"]}`))
	if err != nil {
		t.Fatal(err)
	}
	// Scribble over whatever the pool hands out next.
	for i := 0; i < 4; i++ {
		eb := getEncBuf()
		eb.b = append(eb.b[:0], strings.Repeat("#", 256)...)
		putEncBuf(eb)
	}
	if req.URL != "http://a.de/x" || len(req.URLs) != 1 || req.URLs[0] != "http://b.fr/y" {
		t.Errorf("decoded URLs changed after the buffer was reused: %q %q", req.URL, req.URLs)
	}
}

func benchmarkDecodeClassify(b *testing.B, body []byte) {
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeClassify(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeClassifyPlain decodes a 64-URL WC batch body in the
// strict shape.
func BenchmarkDecodeClassifyPlain(b *testing.B) {
	benchmarkDecodeClassify(b, classifyBody(wcURLs(b, 64)))
}

// BenchmarkDecodeClassifyEscaped decodes the same body with an escaped
// "\/" in its last URL: the worst case for a fallback body, which costs
// encoding/json's decode plus one strict scan that fails at its end.
func BenchmarkDecodeClassifyEscaped(b *testing.B) {
	urls := wcURLs(b, 64)
	body := classifyBody(urls)
	last := bytes.LastIndex(body, []byte(urls[len(urls)-1]))
	escaped := append(append(body[:last:last], strings.Replace(urls[len(urls)-1], "/", `\/`, 1)...), body[last+len(urls[len(urls)-1]):]...)
	if _, ok := parseClassify(escaped); ok {
		b.Fatal("escaped body took the strict path")
	}
	benchmarkDecodeClassify(b, escaped)
}
