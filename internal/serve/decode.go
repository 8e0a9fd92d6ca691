package serve

// Request decoding for /v1/classify and /v1/stream.
//
// Clients send a handful of shapes: a classify object whose keys are
// "url" and/or "urls", and stream lines that are {"url":…} objects,
// JSON strings or bare URLs, with URLs that are plain printable ASCII.
// Those shapes are parsed here in one strict pass over the bytes. Every
// other input — escapes, non-ASCII, other or case-folded keys,
// duplicate keys, null, syntax errors, read errors — goes to
// encoding/json over the same byte stream (json.NewDecoder for a
// classify body, parseStreamLine for a stream line), so status,
// results and error text are those of encoding/json for every body.
// FuzzDecodeClassify and FuzzStreamLine pin the equivalence.
//
// URL strings are always fresh allocations, never substrings of a
// pooled or shared buffer: the engine's cache keeps them (through
// urlx.Normalize's no-rewrite path, which returns a substring), and a
// substring would pin its whole request body in the cache.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// decodeClassify decodes body as a classifyRequest, exactly as
// json.NewDecoder(body).Decode would. The body is read to its end into
// a pooled buffer; a body the strict parser does not accept is decoded
// by encoding/json from the bytes already read followed by the rest of
// body. A body over maxPooledEncBuf bytes goes the same way once that
// much is read, without a strict scan, so a fallback holds at most that
// many read-ahead bytes on top of what encoding/json itself holds. A
// read error (the body cap's *http.MaxBytesError included) also falls
// back, and reaches the caller only where encoding/json would report
// it: the cap's reader repeats its error on every later Read.
func decodeClassify(body io.Reader) (classifyRequest, error) {
	eb := getEncBuf()
	defer putEncBuf(eb)
	buf := bytes.NewBuffer(eb.b[:0])
	n, err := buf.ReadFrom(io.LimitReader(body, maxPooledEncBuf+1))
	b := buf.Bytes()
	eb.b = b
	if err == nil && n <= maxPooledEncBuf {
		if req, ok := parseClassify(b); ok {
			return req, nil
		}
	}
	var req classifyRequest
	err = json.NewDecoder(io.MultiReader(bytes.NewReader(b), body)).Decode(&req)
	return req, err
}

// parseClassify parses b as the strict classify shape: a non-empty
// object whose keys are "url" (a plain string) and "urls" (a non-empty
// array of plain strings), each at most once, optionally followed by
// JSON whitespace. ok is false for anything else.
func parseClassify(b []byte) (req classifyRequest, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return req, false
	}
	i = skipSpace(b, i+1)
	seenURL, seenURLs := false, false
	for {
		key, end := plainString(b, i)
		if end < 0 {
			return req, false
		}
		i = skipSpace(b, end)
		if i == len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)
		switch {
		case string(key) == "url" && !seenURL:
			seenURL = true
			var u []byte
			if u, i = plainString(b, i); i < 0 {
				return req, false
			}
			req.URL = string(u)
		case string(key) == "urls" && !seenURLs:
			seenURLs = true
			if req.URLs, i = plainStringArray(b, i); i < 0 {
				return req, false
			}
		default:
			return req, false
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return req, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return req, skipSpace(b, i+1) == len(b)
		default:
			return req, false
		}
	}
}

// plainStringArray parses the non-empty array of plain strings at b[i:]
// and returns it with the index just past its ']', or a negative index.
func plainStringArray(b []byte, i int) ([]string, int) {
	if i == len(b) || b[i] != '[' {
		return nil, -1
	}
	// Two quotes per plain string bound the element count; the cap
	// keeps a body of bare quotes from sizing a huge slice up front.
	urls := make([]string, 0, min(bytes.Count(b[i:], []byte{'"'})/2, 1024))
	i = skipSpace(b, i+1)
	for {
		u, end := plainString(b, i)
		if end < 0 {
			return nil, -1
		}
		urls = append(urls, string(u))
		i = skipSpace(b, end)
		if i == len(b) {
			return nil, -1
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return urls, i + 1
		default:
			return nil, -1
		}
	}
}

// plainString parses the JSON string at b[i:] if its contents are
// printable ASCII without a backslash — the only strings whose decoded
// value is their raw bytes. It returns the contents (aliasing b) and
// the index just past the closing quote, or a negative index.
func plainString(b []byte, i int) ([]byte, int) {
	if i == len(b) || b[i] != '"' {
		return nil, -1
	}
	j := i + 1
	for j < len(b) && byteClass[b[j]]&strPlain != 0 {
		j++
	}
	if j == len(b) || b[j] != '"' {
		return nil, -1
	}
	return b[i+1 : j], j + 1
}

// plainBytes reports whether every byte of b is strPlain, so that the
// JSON string "b" decodes to b itself.
func plainBytes(b []byte) bool {
	for _, c := range b {
		if byteClass[c]&strPlain == 0 {
			return false
		}
	}
	return true
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// streamLineURL extracts the URL from one non-empty NDJSON input line,
// exactly as parseStreamLine(string(line)) does, parsing lines in the
// strict shapes here and handing everything else to parseStreamLine.
func streamLineURL(line []byte) (string, error) {
	if u, ok := plainStreamLine(line); ok {
		return u, nil
	}
	return parseStreamLine(string(line))
}

// plainStreamLine returns the URL of a line in a strict shape — a bare
// URL, a plain JSON string optionally followed by JSON whitespace, or
// an object in the strict classify shape with a non-empty "url" (a
// "urls" key is ignored, as encoding/json ignores it in a stream line).
// ok is false for anything else. The usual object line, {"url":"…"}
// with a non-empty plain string and nothing else, is recognised by its
// fixed prefix and suffix and one scan of the bytes between them.
func plainStreamLine(line []byte) (url string, ok bool) {
	switch line[0] {
	case '{':
		const prefix, suffix = `{"url":"`, `"}`
		if n := len(line); n > len(prefix)+len(suffix) &&
			string(line[:len(prefix)]) == prefix && string(line[n-len(suffix):]) == suffix {
			u := line[len(prefix) : n-len(suffix)]
			if plainBytes(u) {
				return string(u), true
			}
		}
		req, ok := parseClassify(line)
		return req.URL, ok && req.URL != ""
	case '"':
		if u, i := plainString(line, 0); i >= 0 && skipSpace(line, i) == len(line) {
			return string(u), true
		}
		return "", false
	default:
		return string(line), true
	}
}

// parseStreamLine extracts the URL from one NDJSON input line with
// encoding/json: the reference behaviour streamLineURL falls back to.
func parseStreamLine(line string) (string, error) {
	switch line[0] {
	case '{':
		var obj struct {
			URL string `json:"url"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			return "", fmt.Errorf("invalid JSON object: %v", err)
		}
		if obj.URL == "" {
			return "", fmt.Errorf(`object lacks a "url" field`)
		}
		return obj.URL, nil
	case '"':
		var s string
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			return "", fmt.Errorf("invalid JSON string: %v", err)
		}
		return s, nil
	default:
		return line, nil
	}
}

// errResultsGone stops a stream's body scan once writing results has
// failed: the client no longer reads them.
var errResultsGone = errors.New("writing results failed")

// flushingReader is a stream's request body as its scanner reads it.
// Each Read first emits the pending partial micro-batch: a body read is
// the only point where the handler can wait for the client, so results
// for every line read so far are on the wire before it waits. A
// lockstep client, which sends a few lines and waits for their results,
// gets them as soon as its lines are read.
type flushingReader struct {
	body io.Reader
	emit func() bool // false once a write has failed
}

func (r *flushingReader) Read(p []byte) (int, error) {
	if !r.emit() {
		return 0, errResultsGone
	}
	return r.body.Read(p)
}
