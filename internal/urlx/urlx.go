// Package urlx parses and tokenises URLs the way the paper's feature
// extractors require (§3.1 of Baykan et al., VLDB 2008).
//
// A URL is split into a sequence of strings of letters at any punctuation
// mark, digit, or other non-letter character. Strings shorter than two
// letters and the special words "www", "index", "html", "htm", "http" and
// "https" are removed; the survivors are called tokens. For example
//
//	http://www.internetwordstats.com/africa2.htm
//
// yields the tokens [internetwordstats com africa].
//
// The package also extracts the host, top-level domain, the registrable
// domain (used by the Figure 3 domain-memorisation experiment), the
// pre-/post-slash split that several custom features distinguish, and the
// hyphen count (German URLs carry about five times more hyphens than
// English ones, §3.1).
//
// # Normalization contract
//
// Everything downstream — tokens, the TLD/domain baselines, and the
// serving cache key — derives from one normal form, produced by a single
// structural pass:
//
//  1. Surrounding whitespace is trimmed.
//  2. One layer of %XX escapes is decoded (malformed escapes are kept
//     verbatim).
//  3. ASCII letters are lower-cased. Bytes outside ASCII pass through
//     unchanged — they act as token separators either way.
//  4. A *leading* scheme is stripped: either "//" (scheme-relative) or a
//     prefix matching the RFC 3986 scheme grammar
//     (ALPHA *(ALPHA / DIGIT / "+" / "-" / ".") followed by "://").
//     A "://" appearing anywhere else — for example inside a redirect
//     query parameter — is never treated as a scheme, so
//     "example.fr/go?u=http://example.de/seite" keeps host example.fr.
//
// The host is then the authority span of the normal form (everything
// before the first '/', '?' or '#'), with the userinfo up to the last
// '@' removed, and the port removed positionally: for a "[...]"-bracketed
// IPv6/IPvFuture literal the host is the whole bracketed span (brackets
// kept, so "http://[2001:db8::1]:8080/x" keeps host "[2001:db8::1]");
// otherwise the host ends at the first ':'. Surrounding dots are trimmed
// from non-bracketed hosts.
//
// Scheme detection runs on the decoded form, so a percent-encoded leading
// scheme ("%68ttp://…") is still stripped. Consequently Normalize is not
// idempotent on doubly percent-encoded input; holders of a normal form
// (cache keys) must use SplitNormalized, never re-normalize.
package urlx

import (
	"strings"
	"unsafe"
)

// isSpecial reports whether tok, already lower-cased, is one of the
// words removed during tokenisation per §3.1 of the paper. It is a
// switch, not a map, so the per-token check hashes nothing.
func isSpecial(tok string) bool {
	switch tok {
	case "www", "index", "html", "htm", "http", "https":
		return true
	}
	return false
}

// Parts is the decomposition of a single URL. All fields are lower-case.
type Parts struct {
	// Raw is the original input string.
	Raw string
	// Host is the authority component without port or credentials,
	// e.g. "fr.search.yahoo.com". Bracketed IP literals keep their
	// brackets: "[2001:db8::1]".
	Host string
	// Path is everything after the host (path, query and fragment).
	Path string
	// TLD is the last dot-separated label of the host, e.g. "com".
	// Empty for bracketed IP-literal hosts, which have no TLD.
	TLD string
	// Domain is the registrable domain, e.g. "cam.ac.uk" for
	// "chu.cam.ac.uk" or "epfl.ch" for "ltaa.epfl.ch". Empty for
	// bracketed IP-literal hosts.
	Domain string
	// HostLabels are the dot-separated labels of the host in order,
	// e.g. ["fr", "search", "yahoo", "com"]. Nil for bracketed
	// IP-literal hosts.
	HostLabels []string
	// Tokens are the paper's URL tokens for the whole URL.
	Tokens []string
	// PreTokens are the tokens occurring before the first '/' (the host
	// part); PostTokens are the rest. Several custom features keep
	// separate counters for the two regions.
	PreTokens  []string
	PostTokens []string
	// HyphenCount is the number of '-' characters in the whole URL.
	HyphenCount int
	// DigitRunCount is the number of maximal digit runs in the URL.
	DigitRunCount int
}

// Parse decomposes rawURL. It is forgiving: scheme and "www." prefixes are
// optional, percent-escapes are decoded before tokenisation, and a bare
// host such as "example.de" is accepted. Parse never fails; pathological
// inputs simply yield empty token lists.
func Parse(rawURL string) Parts {
	p := Parts{Raw: rawURL}
	s := Normalize(rawURL)
	host, path := SplitNormalized(s)
	p.Host = host
	p.Path = path

	if host != "" && host[0] != '[' {
		p.HostLabels = strings.Split(host, ".")
		p.TLD = p.HostLabels[len(p.HostLabels)-1]
		p.Domain = RegistrableDomain(host)
	}

	p.PreTokens = Tokenize(host)
	p.PostTokens = Tokenize(p.Path)
	p.Tokens = make([]string, 0, len(p.PreTokens)+len(p.PostTokens))
	p.Tokens = append(p.Tokens, p.PreTokens...)
	p.Tokens = append(p.Tokens, p.PostTokens...)

	p.HyphenCount = strings.Count(s, "-")
	p.DigitRunCount = DigitRuns(s)
	return p
}

// Normalize returns the canonical form of rawURL that all tokenisation
// operates on: whitespace-trimmed, percent-decoded, ASCII-lower-cased,
// with a leading scheme ("http://", "//") stripped. Two URLs with equal
// normal forms parse to identical Parts apart from the Raw field, which
// makes the normal form a sound cache key for any classifier that
// ignores Raw.
//
// When no byte of rawURL needs rewriting — no decodable escape, no
// upper-case ASCII — the result is a substring of rawURL and Normalize
// performs zero allocations.
func Normalize(rawURL string) string {
	s := strings.TrimSpace(rawURL)
	k := rewriteIndex(s)
	if k < 0 {
		return s[schemeEnd(s):]
	}
	b := make([]byte, 0, len(s))
	b = append(b, s[:k]...)
	b = appendDecodedLower(b, s[k:])
	return string(b[schemeEnd(b):])
}

// NormalizeInto is Normalize with caller-owned scratch: when the normal
// form needs byte rewriting it is built in *buf — grown as needed,
// contents overwritten — and the returned string aliases that buffer.
// Inputs already in normal form modulo trimming and scheme-stripping
// return a substring of rawURL. Either way the steady state allocates
// nothing, which is what the compiled serving path pools scratch for.
//
// The caller must treat the returned string, and anything aliasing it
// (such as AppendTokens output), as invalid once *buf is mutated again.
//
//urllangid:hotpath
func NormalizeInto(buf *[]byte, rawURL string) string {
	s := strings.TrimSpace(rawURL)
	k := rewriteIndex(s)
	if k < 0 {
		return s[schemeEnd(s):]
	}
	b := append((*buf)[:0], s[:k]...)
	b = appendDecodedLower(b, s[k:])
	*buf = b
	b = b[schemeEnd(b):]
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// rewriteIndex returns the index of the first byte the normal form
// rewrites — a decodable percent-escape or an upper-case ASCII letter —
// or -1 when the normal form is a plain substring of s.
func rewriteIndex(s string) int {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			return i
		}
		if c == '%' && i+2 < len(s) {
			if _, ok := unhex(s[i+1]); ok {
				if _, ok := unhex(s[i+2]); ok {
					return i
				}
			}
		}
	}
	return -1
}

// appendDecodedLower appends s to dst, resolving one layer of %XX
// escapes and lower-casing ASCII letters. Malformed escapes are kept
// verbatim; bytes outside ASCII pass through unchanged. Decoded bytes
// outside the ASCII letter/digit range act as token separators
// downstream, which is the behaviour we want.
func appendDecodedLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '%' && i+2 < len(s) {
			hi, ok1 := unhex(s[i+1])
			lo, ok2 := unhex(s[i+2])
			if ok1 && ok2 {
				c = hi<<4 | lo
				i += 2
			}
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// schemeEnd returns the number of leading bytes the normal form strips:
// the length of "scheme://" when s begins with an RFC 3986 scheme
// (ALPHA *(ALPHA / DIGIT / "+" / "-" / ".")) followed by "://", 2 for a
// scheme-relative "//" prefix, and 0 otherwise. s must already be
// lower-cased, which both Normalize paths guarantee.
func schemeEnd[T ~string | ~[]byte](s T) int {
	if len(s) >= 2 && s[0] == '/' && s[1] == '/' {
		return 2
	}
	if len(s) == 0 || s[0] < 'a' || s[0] > 'z' {
		return 0
	}
	for i := 1; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '+', c == '-', c == '.':
		case c == ':':
			if i+2 < len(s) && s[i+1] == '/' && s[i+2] == '/' {
				return i + 3
			}
			return 0
		default:
			return 0
		}
	}
	return 0
}

// SplitHostPath splits the normal form of rawURL into the host —
// credentials, port and surrounding dots stripped — and everything after
// it (path, query and fragment). It is the front half of Parse, exposed
// for serving paths that only need tokens and want to skip the full
// Parts decomposition.
func SplitHostPath(rawURL string) (host, path string) {
	return SplitNormalized(Normalize(rawURL))
}

// SplitNormalized splits a string that is already in Normalize's normal
// form into host and path. Callers holding a normal form (e.g. a cache
// key) must use this rather than SplitHostPath: Normalize is not
// idempotent on doubly percent-encoded input, so re-normalizing would
// decode one escape layer too many.
//
// The split is positional: the authority span ends at the first '/',
// '?' or '#'; userinfo ends at the last '@' within that span; a host
// starting with '[' is an IP literal whose brackets delimit it (a
// ':port' after ']' is dropped; an unterminated literal, or non-port
// bytes after ']', keep the whole span as an opaque host rather than
// discarding data); otherwise the host ends at the first ':'.
//
//urllangid:hotpath
func SplitNormalized(s string) (host, path string) {
	auth := s
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		auth, path = s[:i], s[i:]
	}
	if i := strings.LastIndexByte(auth, '@'); i >= 0 {
		auth = auth[i+1:]
	}
	if len(auth) > 0 && auth[0] == '[' {
		if i := strings.IndexByte(auth, ']'); i >= 0 {
			if rest := auth[i+1:]; rest == "" || rest[0] == ':' {
				return auth[:i+1], path
			}
		}
		return auth, path
	}
	if i := strings.IndexByte(auth, ':'); i >= 0 {
		auth = auth[:i]
	}
	return strings.Trim(auth, "."), path
}

// Tokenize splits s into the paper's tokens: maximal runs of ASCII letters,
// lower-cased, with runs shorter than 2 and the special words removed.
func Tokenize(s string) []string {
	return AppendTokens(nil, s)
}

// AppendTokens appends the tokens of s to dst and returns the extended
// slice. When s is already lower-case — as the strings produced by
// Normalize and SplitHostPath are — the appended tokens alias s and the
// only allocation is the occasional growth of dst, which is what the
// compiled serving path relies on for its zero-garbage hot loop.
//
//urllangid:hotpath
func AppendTokens(dst []string, s string) []string {
	VisitTokens(s, func(tok string) {
		dst = append(dst, tok)
	})
	return dst
}

// VisitTokens is the streaming form of Tokenize: it calls fn once per
// token of s, in order, with no intermediate slice. When s is already
// lower-case the emitted tokens alias s and the walk performs zero
// allocations — this is the token-emission primitive the streaming
// feature extractors and the compiled snapshots are built on. fn must
// not retain the token past the call if s's backing memory is reused.
//
// Each letter run is scanned once: the run's upper-case test rides in
// the same loop, as an AND of its bytes (a lower-case ASCII letter has
// bit 0x20 set, an upper-case one clear).
//
//urllangid:hotpath
func VisitTokens(s string, fn func(tok string)) {
	for i := 0; i < len(s); i++ {
		if !isLetter(s[i]) {
			continue
		}
		start := i
		all := byte(0xff)
		for ; i < len(s) && isLetter(s[i]); i++ {
			all &= s[i]
		}
		if i-start < 2 {
			continue
		}
		tok := s[start:i]
		if all&0x20 == 0 {
			// Only mixed-case input pays this copy; the normal forms
			// the serving path tokenises are already lower-case.
			tok = strings.ToLower(tok) //urllangid:ignore hotpathalloc guarded cold branch, normalized serving input is never upper-case
		}
		if !isSpecial(tok) {
			fn(tok)
		}
	}
}

// VisitNormalizedTokens calls fn once per token of a normal form's
// host, then once per token of its path: exactly the tokens of
// VisitTokens over SplitNormalized(norm)'s host and then its path.
//
// When the authority (the bytes before the first '/', '?' or '#')
// holds no '@', ':' or '[', those are the normal form's own tokens:
// the host is the authority with its surrounding dots trimmed, and
// neither the dots nor the separator are letters, so no token spans
// them, so it walks norm once without splitting it; that is the usual
// crawled URL. Any other normal form splits as SplitNormalized does.
//
//urllangid:hotpath
func VisitNormalizedTokens(norm string, fn func(tok string)) {
scan:
	for i := 0; i < len(norm); i++ {
		switch norm[i] {
		case '/', '?', '#':
			break scan
		case '@', ':', '[':
			host, path := SplitNormalized(norm)
			VisitTokens(host, fn)
			VisitTokens(path, fn)
			return
		}
	}
	VisitTokens(norm, fn)
}

// VisitHostLabels calls fn once per dot-separated label of host, in
// order, exactly matching strings.Split(host, ".") — empty labels
// included — without allocating. Bracketed IP-literal hosts and the
// empty host have no labels and yield no calls, mirroring the
// Parts.HostLabels contract.
//
//urllangid:hotpath
func VisitHostLabels(host string, fn func(label string)) {
	if host == "" || host[0] == '[' {
		return
	}
	start := 0
	for i := 0; i < len(host); i++ {
		if host[i] == '.' {
			fn(host[start:i])
			start = i + 1
		}
	}
	fn(host[start:])
}

// LastLabel returns the final dot-separated label of host — the TLD in
// Parts terms. Bracketed IP-literal hosts and the empty host have no
// TLD and return "".
//
//urllangid:hotpath
func LastLabel(host string) string {
	if host == "" || host[0] == '[' {
		return ""
	}
	if i := strings.LastIndexByte(host, '.'); i >= 0 {
		return host[i+1:]
	}
	return host
}

// isLetter reports whether c is an ASCII letter, in one compare:
// c|0x20 folds 'A'..'Z' onto 'a'..'z', and the unsigned subtraction
// wraps every byte below 'a' past 25.
func isLetter(c byte) bool {
	return (c|0x20)-'a' < 26
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// DigitRuns returns the number of maximal digit runs in s (the
// DigitRunCount custom feature, exposed for the streaming extractors).
//
//urllangid:hotpath
func DigitRuns(s string) int {
	runs := 0
	in := false
	for i := 0; i < len(s); i++ {
		if isDigit(s[i]) {
			if !in {
				runs++
				in = true
			}
		} else {
			in = false
		}
	}
	return runs
}

// multiPartSuffixes lists public suffixes that span two labels, so that
// RegistrableDomain("chu.cam.ac.uk") returns "cam.ac.uk" and not "ac.uk".
// The table covers the country codes the paper's §3.2 baseline uses plus
// the most common second-level registries under them.
var multiPartSuffixes = map[string]struct{}{
	"co.uk": {}, "org.uk": {}, "ac.uk": {}, "gov.uk": {}, "net.uk": {}, "me.uk": {}, "ltd.uk": {}, "plc.uk": {},
	"com.au": {}, "net.au": {}, "org.au": {}, "edu.au": {}, "gov.au": {}, "id.au": {},
	"co.nz": {}, "net.nz": {}, "org.nz": {}, "govt.nz": {}, "ac.nz": {}, "school.nz": {},
	"com.ar": {}, "net.ar": {}, "org.ar": {}, "gov.ar": {}, "edu.ar": {},
	"com.mx": {}, "net.mx": {}, "org.mx": {}, "gob.mx": {}, "edu.mx": {},
	"com.co": {}, "net.co": {}, "org.co": {}, "edu.co": {}, "gov.co": {},
	"com.pe": {}, "net.pe": {}, "org.pe": {}, "edu.pe": {}, "gob.pe": {},
	"com.ve": {}, "net.ve": {}, "org.ve": {}, "co.ve": {},
	"co.at": {}, "or.at": {}, "ac.at": {}, "gv.at": {},
	"com.es": {}, "org.es": {}, "nom.es": {}, "edu.es": {}, "gob.es": {},
	"com.fr": {}, "asso.fr": {}, "gouv.fr": {}, "tm.fr": {},
	"com.it": {}, "edu.it": {}, "gov.it": {},
	"co.il": {}, "co.jp": {}, "co.kr": {}, "com.br": {}, "com.cn": {}, "com.tr": {}, "com.tn": {},
	"gov.tn": {}, "org.tn": {}, "net.tn": {},
	"com.dz": {}, "gov.dz": {}, "org.dz": {},
	"com.mg": {}, "org.mg": {},
	"co.cl": {}, "gob.cl": {},
	"co.us": {}, "state.us": {},
	"co.ie": {}, "gov.ie": {},
}

// RegistrableDomain returns the registrable domain of host: the public
// suffix plus one label. Hosts that are themselves a suffix (or empty)
// are returned unchanged. The paper uses this notion of "domain" in §6:
// the domain of ltaa.epfl.ch is epfl.ch, the domain of chu.cam.ac.uk is
// cam.ac.uk.
func RegistrableDomain(host string) string {
	host = strings.Trim(strings.ToLower(host), ".")
	if host == "" {
		return ""
	}
	labels := strings.Split(host, ".")
	n := len(labels)
	if n <= 2 {
		return host
	}
	lastTwo := labels[n-2] + "." + labels[n-1]
	if _, ok := multiPartSuffixes[lastTwo]; ok {
		// suffix spans two labels: registrable domain is three labels.
		return labels[n-3] + "." + lastTwo
	}
	return lastTwo
}

// HasToken reports whether tokens contains tok.
func HasToken(tokens []string, tok string) bool {
	for _, t := range tokens {
		if t == tok {
			return true
		}
	}
	return false
}
