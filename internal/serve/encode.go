package serve

// Hand-rolled JSON encoding for the serving responses.
//
// appendResult writes one Result into a pooled buffer with no
// allocation, and the bytes are exactly those encoding/json gives the
// wire form (resultJSON, in http.go): fields in struct order, score
// keys in the alphabetical order encoding/json gives map keys, strings
// escaped as encoding/json escapes them (HTML escaping included; a
// string needing any escape falls back to encoding/json itself), and
// floats in encoding/json's format. TestAppendResultMatchesEncodingJSON
// pins the equivalence.
//
// Scores dominate the encoding cost: five floats per URL, most of them
// needing 16 or 17 significant digits. appendJSONFloat formats the
// range real scores fall in, finite and non-integral with
// 2^-9 <= |f| < 2^53, through appendShortestFixed, an exact integer
// form of strconv's shortest (Ryū) conversion that writes its digits
// straight into the buffer. Every other float takes strconv's generic
// path. DESIGN §2.3 ("Response encoding contract") lists the tests that
// hold both paths to encoding/json's bytes.

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/bits"
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

// languagesJSON holds, for each of the 32 claim sets a Result can
// carry, the bytes appendResult writes between the URL and the first
// score key: the claimed languages' codes in canonical order, as
// encoding/json writes the Languages slice, and the opening of the
// Scores map.
var languagesJSON = func() (t [1 << langid.NumLanguages]string) {
	for set := range t {
		b := []byte(`,"languages":[`)
		for li := 0; li < langid.NumLanguages; li++ {
			l := langid.Language(li)
			if !langid.LabelSet(set).Has(l) {
				continue
			}
			if b[len(b)-1] != '[' {
				b = append(b, ',')
			}
			b = append(append(append(b, '"'), l.Code()...), '"')
		}
		t[set] = string(append(b, `],"scores":{`...))
	}
	return t
}()

// appendResult appends one Result as a JSON object, byte-identical to
// json.Marshal(toJSON(r)). The score keys are written in the
// alphabetical order of the ISO codes — de, en, es, fr, it — which is
// the order encoding/json emits the Scores map in.
func appendResult(b []byte, r Result) []byte {
	b = append(b, `{"url":`...)
	b = appendJSONString(b, r.URL)
	b = append(b, languagesJSON[r.Claims()&(1<<langid.NumLanguages-1)]...)
	scores := r.Scores()
	b = appendJSONFloat(append(b, `"de":`...), scores[langid.German])
	b = appendJSONFloat(append(b, `,"en":`...), scores[langid.English])
	b = appendJSONFloat(append(b, `,"es":`...), scores[langid.Spanish])
	b = appendJSONFloat(append(b, `,"fr":`...), scores[langid.French])
	b = appendJSONFloat(append(b, `,"it":`...), scores[langid.Italian])
	b = append(b, '}')
	if r.Cached {
		b = append(b, `,"cached":true`...)
	}
	return append(b, '}')
}

// Byte classes of the codec's string scans: each scan tests a byte
// with one load from byteClass.
const (
	// jsonPlain marks a byte encoding/json writes as itself inside a
	// string: printable ASCII other than '"', '\\', '<', '>' and '&'
	// (HTML escaping is on).
	jsonPlain = 1 << iota
	// strPlain marks a byte whose JSON string escape is itself, so a
	// string of such bytes decodes to its raw bytes: printable ASCII
	// other than '"' and '\\'.
	strPlain
)

// byteClass maps each byte to its class bits.
var byteClass = func() (t [256]uint8) {
	for c := 0x20; c < 0x7f; c++ {
		switch c {
		case '"', '\\':
		case '<', '>', '&':
			t[c] = strPlain
		default:
			t[c] = jsonPlain | strPlain
		}
	}
	return t
}()

// appendJSONString appends s as a JSON string exactly as encoding/json
// would (HTML escaping on). Strings of jsonPlain bytes — every
// real-world URL — take the in-place fast path; anything needing
// escapes falls back to encoding/json so the byte-level contract holds
// without reimplementing its escape table.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if byteClass[s[i]]&jsonPlain == 0 {
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
// exponent outside it. A finite, non-integral f with
// 2^-9 <= |f| < 2^53 takes appendShortestFixed; strconv formats every
// other float.
func appendJSONFloat(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	mant := u&(1<<52-1) | 1<<52
	exp := int(u>>52&0x7ff) - 1075 // f = ±mant × 2^exp when f is normal
	// exp >= -61 (|f| >= 2^-9) keeps the kernel's power of ten within a
	// uint64; exp < 0 with a set bit below the point is a non-integer.
	if -61 <= exp && exp < 0 && bits.TrailingZeros64(mant) < -exp {
		return appendShortestFixed(b, u>>63 != 0, mant, exp)
	}
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

// pow10 holds every power of ten a uint64 holds.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// appendShortestFixed appends ±mant×2^exp, which must be a non-integral
// value with a 53-bit mant (top bit set) and -61 <= exp < 0, exactly as
// strconv.AppendFloat(b, f, 'f', -1, 64) does: the shortest decimal
// that reads back as the same float64, in plain notation.
//
// It is strconv's shortest Ryū conversion (ryuFtoaShortest in Go's
// strconv/ftoaryu.go) with exact arithmetic in place of the 128-bit
// power table. The rounding interval's endpoints are
// (2m−1, 2m, 2m+1)·2^e2, or (4m−1, 4m, 4m+2)·2^e2 just above a power
// of two, with e2 between −63 and −2. Scaled by 10^q, the least power
// of ten above 2^−e2 (q <= 19), each endpoint is one exact 64×64-bit
// product; its floor is a shift and its fraction a mask. strconv's
// table is exact for these q too, so its floors and exactness flags
// are these, and the same decisions give the same digits.
//
//urllangid:hotpath
func appendShortestFixed(b []byte, neg bool, mant uint64, exp int) []byte {
	ml, mc, mu, e2 := 2*mant-1, 2*mant, 2*mant+1, exp-1
	if mant == 1<<52 {
		// The next float down is half a step closer.
		ml, mc, mu, e2 = 4*mant-1, 4*mant, 4*mant+2, exp-2
	}
	q := (-e2*78913)>>18 + 1 // ⌊−e2·log₁₀2⌋ + 1, as mulByLog2Log10
	shift := uint(-e2)
	dl, fl := scaleFloor(ml, pow10[q], shift)
	dc, fc := scaleFloor(mc, pow10[q], shift)
	du, fu := scaleFloor(mu, pow10[q], shift)
	// Scaled, the interval is wider than 2 and below 10·2^55, so
	// dl < du after the adjustments below, and all three exceed 2^53.
	//
	// An endpoint reads back as f only when mant is even (round half
	// to even), so an exact endpoint counts only then.
	even := mant&1 == 0
	if fu == 0 && !even {
		du--
	}
	if fl != 0 || !even {
		dl++
	}
	// Does the central value round up? An exact tie rounds to even.
	// nz records a nonzero fraction below it (strconv's !c0).
	half := uint64(1) << (shift - 1)
	up := b2u(fc > half) | b2u(fc == half)&uint32(dc&1)
	nz := b2u(fc != 0)

	// strconv's ryuDigits: split at 10^9 and trim the low half, or,
	// when a multiple of 10^9 lies in the interval, drop nine digits at
	// once and trim the high half. s×10^x is the result, trailing zeros
	// included.
	chi := dc / 1e9
	base := chi * 1e9
	var s uint64
	var x int
	if dl >= base && du-base < 1e9 { // dl/1e9 == chi == du/1e9
		c, trimmed := ryuTrim(uint32(dl-base), uint32(dc-base), uint32(du-base), nz, up)
		s, x = chi*pow10[9-trimmed]+uint64(c), trimmed-q
	} else {
		lhi, uhi, clo := (dl+1e9-1)/1e9, du/1e9, dc-base
		up = b2u(clo > 5e8) | b2u(clo == 5e8)&up
		nz |= b2u(clo != 0)
		c, trimmed := ryuTrim(uint32(lhi), uint32(chi), uint32(uhi), nz, up)
		s, x = uint64(c), 9+trimmed-q
	}

	// Write the text left to right: sign, integer part, point, and the
	// k = -x fraction digits, then drop trailing zeros. The integer part
	// is f's own: the rounding interval of a non-integral double holds
	// no integer, so the decimal picked in it has f's integer part and a
	// nonzero fraction. Digits go in blocks of up to eight, each one
	// 8-byte store; a short block's store runs past its digits, into
	// bytes the next store or the final cut to length covers.
	ip := mant >> uint(-exp)
	k := -x
	frac := s - ip*pow10[k]
	ni := 0
	if neg {
		ni = 1
	}
	nI := decimalLen(ip | 1) // ip|1 has ip's digit count, and 1 for ip = 0
	start := len(b)
	// Room for the text and the last store's spill; the text overwrites
	// these bytes and the slice is cut to its length.
	b = append(b, "00000000000000000000000000000000"...)
	d := b[start:]
	d[0] = '-'
	p := ni
	if nI > 8 {
		hi := ip / 1e8
		p = putBlock(d, p, hi, nI-8)
		ip -= hi * 1e8
		nI = 8
	}
	p = putBlock(d, p, ip, nI)
	d[p] = '.'
	p++
	if k > 16 {
		hi := frac / 1e16
		p = putBlock(d, p, hi, k-16)
		frac -= hi * 1e16
		k = 16
	}
	if k > 8 {
		hi := frac / 1e8
		p = putBlock(d, p, hi, k-8)
		frac -= hi * 1e8
		k = 8
	}
	p = putBlock(d, p, frac, k)
	for d[p-1] == '0' {
		p--
	}
	return b[:start+p]
}

// decimalLen returns the count of decimal digits of s > 0.
func decimalLen(s uint64) int {
	n := bits.Len64(s) * 1233 >> 12 // ⌊bits·log₁₀2⌋
	if s >= pow10[n] {
		n++
	}
	return n
}

// putBlock writes v < 10^n, 1 <= n <= 8, as n digits at d[p:], storing
// eight bytes, and returns the index after them.
func putBlock(d []byte, p int, v uint64, n int) int {
	binary.LittleEndian.PutUint64(d[p:], digits8(uint32(v))>>(8*(8-n)))
	return p + n
}

// digits8 returns v < 10^8 as eight ASCII digits, the first in the low
// byte: four lanes of two digits, then eight lanes of one.
func digits8(v uint32) uint64 {
	x := uint64(v/10000) | uint64(v%10000)<<32
	q := (x * 10486 >> 20) & 0x0000007F0000007F // x/100 in each 32-bit lane
	x = q | (x-q*100)<<16
	q = (x * 103 >> 10) & 0x000F000F000F000F // x/10 in each 16-bit lane
	x = q | (x-q*10)<<8
	return x | 0x3030303030303030
}

// scaleFloor returns the floor and the fraction bits of m×p/2^shift,
// for shift in [1, 63] and a floor that fits in 64 bits.
func scaleFloor(m, p uint64, shift uint) (floor, frac uint64) {
	hi, lo := bits.Mul64(m, p)
	return hi<<(64-shift) | lo>>shift, lo & (1<<shift - 1)
}

// ryuTrim is the digit-trimming loop of strconv's ryuDigits32: it drops
// trailing digits while the interval [lower, upper] still holds a
// shorter number, then rounds central to it. It returns the rounded
// central and the count of digits dropped. upper > 0.
func ryuTrim(lower, central, upper, nz, up uint32) (uint32, int) {
	trimmed := 0
	cNextDigit := uint32(0) // the last digit dropped
	for upper > 0 {
		l := (lower + 9) / 10
		c, cdigit := central/10, central%10
		u := upper / 10
		if l > u {
			break
		}
		// central is just below an integer with more trailing zeros,
		// inside the interval: take that one.
		if l == c+1 && c < u {
			c++
			cdigit = 0
		}
		trimmed++
		nz |= cNextDigit
		cNextDigit = cdigit
		lower, central, upper = l, c, u
	}
	// Round up when the dropped digit is over 5, or 5 with a nonzero
	// digit below it or an odd central; with nothing dropped, up stands.
	if trimmed > 0 {
		up = b2u(cNextDigit > 5) | b2u(cNextDigit == 5)&(b2u(nz != 0)|central&1)
	}
	return central + up&b2u(central < upper), trimmed
}

// b2u returns 1 for true and 0 for false.
func b2u(b bool) uint32 {
	var u uint32
	if b {
		u = 1
	}
	return u
}
