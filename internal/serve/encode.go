package serve

// Pooled hand-rolled JSON encoding for the per-request response path.
//
// The classify and stream handlers used to build a resultJSON — a
// five-entry map plus a languages slice per URL — and hand it to
// encoding/json, which re-sorted the map and reflected over the struct
// on every result. Those per-result allocations dominated the serving
// allocation budget. appendResult writes the identical bytes directly
// into a pooled buffer instead: zero allocations per result, one
// buffer (reused across requests) per response.
//
// Byte-identical means byte-identical: field order matches the
// resultJSON struct, score keys appear in the alphabetical order
// encoding/json gives map keys, strings escape exactly like
// encoding/json (HTML escaping included — rare strings that need more
// than the ASCII fast path fall back to encoding/json itself), and
// floats use encoding/json's format selection, not plain strconv 'g'.
// TestAppendResultMatchesEncodingJSON pins the equivalence.

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"

	"urllangid/internal/langid"
)

// encBuf is one pooled encode buffer. The pool holds pointers so
// returning a buffer does not itself allocate.
type encBuf struct{ b []byte }

// encBufPool recycles response encode buffers, and /v1/classify's
// request read buffers, across requests.
var encBufPool = sync.Pool{New: func() any { return &encBuf{b: make([]byte, 0, 4096)} }}

// maxPooledEncBuf caps what returns to the pool: a single huge batch
// response must not pin its buffer for the life of the process.
const maxPooledEncBuf = 1 << 20

func getEncBuf() *encBuf {
	return encBufPool.Get().(*encBuf)
}

func putEncBuf(eb *encBuf) {
	if cap(eb.b) > maxPooledEncBuf {
		return
	}
	eb.b = eb.b[:0]
	encBufPool.Put(eb)
}

// scoreKeyOrder lists the languages in the alphabetical order of their
// ISO codes — de, en, es, fr, it — which is the order encoding/json
// emits the Scores map in.
var scoreKeyOrder = [langid.NumLanguages]langid.Language{
	langid.German, langid.English, langid.Spanish, langid.French, langid.Italian,
}

// appendResult appends one Result as a JSON object, byte-identical to
// json.Marshal(toJSON(r)).
func appendResult(b []byte, r Result) []byte {
	b = append(b, `{"url":`...)
	b = appendJSONString(b, r.URL)
	b = append(b, `,"languages":[`...)
	first := true
	scores := r.Scores()
	for li := 0; li < langid.NumLanguages; li++ {
		l := langid.Language(li)
		if !r.Is(l) {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, '"')
		b = append(b, l.Code()...)
		b = append(b, '"')
	}
	b = append(b, `],"scores":{`...)
	for i, l := range scoreKeyOrder {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, l.Code()...)
		b = append(b, `":`...)
		b = appendJSONFloat(b, scores[l])
	}
	b = append(b, '}')
	if r.Cached {
		b = append(b, `,"cached":true`...)
	}
	return append(b, '}')
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// would (HTML escaping on). Strings of plain printable ASCII — every
// real-world URL — take the in-place fast path; anything needing
// escapes falls back to encoding/json so the byte-level contract holds
// without reimplementing its escape table.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// The escape fallback: URLs with quotes, control bytes or
			// non-ASCII are not the serving common case.
			enc, err := json.Marshal(s)
			if err != nil {
				// A bare string only fails to marshal on invalid UTF-8,
				// which encoding/json itself replaces; unreachable.
				return append(append(b, '"'), '"')
			}
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f the way encoding/json encodes a float64:
// shortest form, 'f' format in the human range, 'e' with a trimmed
// exponent outside it.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims a two-digit exponent's leading zero:
		// 1e-09 becomes 1e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
