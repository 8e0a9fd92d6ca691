// Package flat implements the version-3 model container: a flat,
// alignment-safe, little-endian section layout built to be mapped into
// memory and consumed in place. Where a gob payload must be decoded
// into heap structures — cold start linear in model size, one private
// copy of the weights per process — a v3 file is a directory of typed
// sections whose payloads ARE the serving data structures: dense weight
// arrays, string-table buckets, flattened trees, packed kNN rows.
// Opening one costs a directory walk; the page cache shares the bytes
// across processes.
//
// # Layout
//
// A 64-byte header, a section directory, then the section payloads:
//
//	offset  size  field
//	0       8     magic (shared with the v2 classifier container)
//	8       1     container version, 3
//	9       1     kind byte ('S': compiled snapshot)
//	10      6     reserved, zero
//	16      8     directory offset (always 64), uint64 LE
//	24      4     directory entry count, uint32 LE
//	28      4     reserved, zero
//	32      32    model digest: SHA-256 of the directory bytes
//
// Each directory entry is 56 bytes:
//
//	offset  size  field
//	0       4     section type, uint32 LE
//	4       4     language index, int32 LE (-1: whole-model section)
//	8       8     payload offset from file start, uint64 LE
//	16      8     payload length in bytes, uint64 LE
//	24      32    payload digest: SHA-256 of the payload bytes
//
// Every payload offset is 64-byte aligned (Align), so any element type
// up to a cache line can be viewed in place, and payloads never
// overlap. All integers are little-endian; the typed view helpers are
// zero-copy on little-endian hosts and decode-copy elsewhere, so the
// format is portable while the common case never touches the heap.
//
// Because the header digest covers the directory and each entry carries
// its payload digest, the model digest identifies the full content
// (Merkle-style) while costing only a directory hash to compute — which
// is what keeps the registry's reload digest-skip free.
//
// # Verification contract
//
// Parse validates the header and the complete directory eagerly: magic,
// version, digest, entry bounds, alignment, overlap. It does NOT touch
// payload bytes; callers verify those lazily — per section as they
// materialise one (VerifyPayload), or all at once on first scoring
// touch (Verify). Until a payload is verified its bytes must be treated
// as untrusted: view them, but do not index derived structures by them.
package flat

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
)

// magic matches the classifier container's magic, so one sniff
// identifies all model files.
var magic = [8]byte{0x89, 'U', 'R', 'L', 'I', 'D', '\r', '\n'}

// Version is the container version byte this package implements.
const Version byte = 3

// Layout constants. Align is the payload alignment: large enough for
// any scalar element type and one cache line, so in-place views are
// always well-aligned and adjacent sections never share a line.
const (
	HeaderSize = 64
	EntrySize  = 56
	Align      = 64
)

// maxSections bounds the directory a reader accepts; real snapshots
// carry a few dozen sections, so anything larger marks a corrupt count.
const maxSections = 4096

// Section types. The values are part of the wire format; new types are
// appended, never renumbered.
const (
	// SecMeta is the model metadata JSON: configuration, mode, feature
	// kind, dimensionality. Always present, written first.
	SecMeta uint32 = 1
	// SecWeights is the language-interleaved dense weight block of the
	// linear modes, []float64.
	SecWeights uint32 = 2
	// SecPrePost is the linear modes' per-language pre/post adjustments:
	// 2×NumLanguages float64 (pre vector then post vector).
	SecPrePost uint32 = 3
	// SecStrBlob, SecStrOffs and SecStrSlots persist the string table:
	// the name byte blob, the n+1 []uint32 offsets, and the power-of-two
	// open-addressing bucket array probed in place.
	SecStrBlob  uint32 = 4
	SecStrOffs  uint32 = 5
	SecStrSlots uint32 = 6
	// SecTreeFeat, SecTreeThr and SecTreeKids are one language's
	// flattened decision tree ([]int32, []float64, []int32).
	SecTreeFeat uint32 = 7
	SecTreeThr  uint32 = 8
	SecTreeKids uint32 = 9
	// SecKnnRows, SecKnnIdx, SecKnnVal, SecKnnPos and SecKnnNorm are one
	// language's packed kNN reference set: CSR row offsets, indices,
	// values, 0/1 labels, and the precomputed squared norms.
	SecKnnRows uint32 = 10
	SecKnnIdx  uint32 = 11
	SecKnnVal  uint32 = 12
	SecKnnPos  uint32 = 13
	SecKnnNorm uint32 = 14
	// SecDict is one language's trained-dictionary token list (string
	// list encoding), for the custom feature families.
	SecDict uint32 = 15
	// SecTLD is one language's country-code TLD list (string list
	// encoding), persisted so TLD baseline files are self-describing and
	// validated against the built-in tables on load.
	SecTLD uint32 = 16
	// SecCalib is the model's fitted margin → probability calibration
	// (calib package encoding), consulted by cascade serving. Optional:
	// files written before calibration existed simply lack it and load
	// uncalibrated, and readers that predate it skip it as an unknown
	// section type.
	SecCalib uint32 = 17
)

// SectionName names a section type for inspection output.
func SectionName(typ uint32) string {
	switch typ {
	case SecMeta:
		return "meta"
	case SecWeights:
		return "weights"
	case SecPrePost:
		return "prepost"
	case SecStrBlob:
		return "strtab-blob"
	case SecStrOffs:
		return "strtab-offs"
	case SecStrSlots:
		return "strtab-slots"
	case SecTreeFeat:
		return "tree-feat"
	case SecTreeThr:
		return "tree-thr"
	case SecTreeKids:
		return "tree-kids"
	case SecKnnRows:
		return "knn-rows"
	case SecKnnIdx:
		return "knn-idx"
	case SecKnnVal:
		return "knn-val"
	case SecKnnPos:
		return "knn-pos"
	case SecKnnNorm:
		return "knn-norm"
	case SecDict:
		return "dict"
	case SecTLD:
		return "tld"
	case SecCalib:
		return "calib"
	default:
		return fmt.Sprintf("unknown(%d)", typ)
	}
}

// Section is one directory entry.
type Section struct {
	// Type is the section type, one of the Sec* constants.
	Type uint32
	// Lang is the language index for per-language sections, -1 for
	// whole-model sections.
	Lang int32
	// Off and Len locate the payload in the file. Off is Align-aligned.
	Off uint64
	Len uint64
	// Digest is the SHA-256 of the payload bytes.
	Digest [32]byte
}

// IsFlat reports whether data starts like a v3 flat container (magic
// plus version byte); it looks at no more than the first 9 bytes.
func IsFlat(data []byte) bool {
	return len(data) > len(magic) &&
		bytes.Equal(data[:len(magic)], magic[:]) &&
		data[len(magic)] == Version
}

// File is a parsed v3 container over its raw bytes: the validated
// directory plus the backing data. The backing bytes may be a live
// memory mapping; File never copies them.
type File struct {
	data   []byte
	kind   byte
	secs   []Section
	digest [32]byte
}

// Parse validates data's header and directory and returns the parsed
// file. It is the eager half of the verification contract: after Parse
// every section's bounds, alignment and disjointness are known good and
// the directory matches the header digest, but payload bytes are still
// unverified (see File.Verify / File.VerifyPayload).
func Parse(data []byte) (*File, error) {
	if len(data) < HeaderSize {
		return nil, fmt.Errorf("flat: file is %d bytes, shorter than the %d-byte header", len(data), HeaderSize)
	}
	kind, count, digest, err := parseHeader(data[:HeaderSize])
	if err != nil {
		return nil, err
	}
	dirLen := uint64(count) * EntrySize
	if uint64(len(data))-HeaderSize < dirLen {
		return nil, fmt.Errorf("flat: file truncated in section directory: %d of %d directory bytes", len(data)-HeaderSize, dirLen)
	}
	dir := data[HeaderSize : HeaderSize+dirLen]
	secs, err := parseDirectory(dir, digest, int64(len(data)))
	if err != nil {
		return nil, err
	}
	return &File{data: data, kind: kind, secs: secs, digest: digest}, nil
}

// ReadIndex reads and validates the header and directory from a
// sequential reader, leaving r positioned at the first byte after the
// directory. It is the streaming form of Parse for callers that inspect
// a file without holding (or mapping) all of it; with no known file
// size, section bounds beyond the directory are not checked.
func ReadIndex(r io.Reader) (kind byte, digest [32]byte, secs []Section, err error) {
	var head [HeaderSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, digest, nil, fmt.Errorf("flat: reading header: %w", err)
	}
	kind, count, digest, err := parseHeader(head[:])
	if err != nil {
		return 0, digest, nil, err
	}
	dir := make([]byte, uint64(count)*EntrySize)
	if _, err := io.ReadFull(r, dir); err != nil {
		return 0, digest, nil, fmt.Errorf("flat: file truncated in section directory: %w", err)
	}
	secs, err = parseDirectory(dir, digest, -1)
	if err != nil {
		return 0, digest, nil, err
	}
	return kind, digest, secs, nil
}

// parseHeader validates the fixed 64-byte header.
func parseHeader(head []byte) (kind byte, count uint32, digest [32]byte, err error) {
	if !bytes.Equal(head[:len(magic)], magic[:]) {
		return 0, 0, digest, fmt.Errorf("flat: missing model file magic")
	}
	if v := head[len(magic)]; v != Version {
		return 0, 0, digest, fmt.Errorf("flat: container version %d, want %d", v, Version)
	}
	kind = head[len(magic)+1]
	dirOff := binary.LittleEndian.Uint64(head[16:24])
	count = binary.LittleEndian.Uint32(head[24:28])
	if dirOff != HeaderSize {
		return 0, 0, digest, fmt.Errorf("flat: directory offset %d, want %d", dirOff, HeaderSize)
	}
	if count > maxSections {
		return 0, 0, digest, fmt.Errorf("flat: directory claims %d sections (limit %d): corrupt file", count, maxSections)
	}
	copy(digest[:], head[32:64])
	return kind, count, digest, nil
}

// parseDirectory validates the directory bytes against the header
// digest and decodes the entries. fileSize bounds the payload extents;
// -1 skips the bounds checks for streaming callers that do not know it.
func parseDirectory(dir []byte, digest [32]byte, fileSize int64) ([]Section, error) {
	if got := sha256.Sum256(dir); got != digest {
		return nil, fmt.Errorf("flat: section directory corrupted: SHA-256 mismatch (header claims %.12s…, directory is %.12s…)",
			hex.EncodeToString(digest[:]), hex.EncodeToString(got[:]))
	}
	payloadStart := alignUp(HeaderSize + uint64(len(dir)))
	secs := make([]Section, len(dir)/EntrySize)
	for i := range secs {
		e := dir[i*EntrySize:]
		s := Section{
			Type: binary.LittleEndian.Uint32(e[0:4]),
			Lang: int32(binary.LittleEndian.Uint32(e[4:8])),
			Off:  binary.LittleEndian.Uint64(e[8:16]),
			Len:  binary.LittleEndian.Uint64(e[16:24]),
		}
		copy(s.Digest[:], e[24:56])
		if s.Type == 0 {
			return nil, fmt.Errorf("flat: section %d has type 0", i)
		}
		if s.Lang < -1 || s.Lang >= 16 {
			return nil, fmt.Errorf("flat: section %d (%s) has language index %d", i, SectionName(s.Type), s.Lang)
		}
		if s.Off%Align != 0 {
			return nil, fmt.Errorf("flat: section %d (%s) payload at offset %d is not %d-byte aligned", i, SectionName(s.Type), s.Off, Align)
		}
		if s.Off < payloadStart {
			return nil, fmt.Errorf("flat: section %d (%s) payload at offset %d overlaps the directory (payloads start at %d)",
				i, SectionName(s.Type), s.Off, payloadStart)
		}
		if fileSize >= 0 && (s.Off > uint64(fileSize) || s.Len > uint64(fileSize)-s.Off) {
			return nil, fmt.Errorf("flat: section %d (%s) claims bytes [%d, %d+%d) beyond the %d-byte file",
				i, SectionName(s.Type), s.Off, s.Off, s.Len, fileSize)
		}
		for j := 0; j < i; j++ {
			if secs[j].Type == s.Type && secs[j].Lang == s.Lang {
				return nil, fmt.Errorf("flat: duplicate section %s lang %d", SectionName(s.Type), s.Lang)
			}
		}
		secs[i] = s
	}

	// Reject overlapping payloads: sorted by offset, each section must
	// end before the next begins.
	order := make([]int, len(secs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return secs[order[a]].Off < secs[order[b]].Off })
	for i := 1; i < len(order); i++ {
		prev, next := secs[order[i-1]], secs[order[i]]
		if prev.Off+prev.Len > next.Off {
			return nil, fmt.Errorf("flat: sections %s and %s overlap", SectionName(prev.Type), SectionName(next.Type))
		}
	}
	return secs, nil
}

// Kind returns the container's kind byte.
func (f *File) Kind() byte { return f.kind }

// ModelDigest returns the lowercase hex model digest from the header:
// the SHA-256 of the directory bytes, which (via the per-section
// digests) identifies the complete model content.
func (f *File) ModelDigest() string { return hex.EncodeToString(f.digest[:]) }

// Sections returns the parsed directory. The slice must not be
// modified.
func (f *File) Sections() []Section { return f.secs }

// PayloadBytes returns the total payload size across all sections.
func (f *File) PayloadBytes() int64 {
	var n int64
	for _, s := range f.secs {
		n += int64(s.Len)
	}
	return n
}

// Payload returns the raw payload bytes of the (typ, lang) section, or
// false when the file carries no such section. The bytes alias the
// backing data (possibly a live mapping): callers must not modify them,
// and — per the verification contract — must digest-verify the section
// before trusting values read from it. Prefer the typed view helpers
// (Float64s, Uint32s, Strings, …) over slicing the raw bytes.
func (f *File) Payload(typ uint32, lang int32) ([]byte, bool) {
	for _, s := range f.secs {
		if s.Type == typ && s.Lang == lang {
			return f.data[s.Off : s.Off+s.Len : s.Off+s.Len], true
		}
	}
	return nil, false
}

// PayloadOf returns s's raw payload bytes; s must come from this file's
// Sections. The same aliasing and verification caveats as Payload
// apply.
func (f *File) PayloadOf(s Section) []byte {
	return f.data[s.Off : s.Off+s.Len : s.Off+s.Len]
}

// VerifyPayload digest-verifies the (typ, lang) section's payload
// bytes. Sections a loader materialises eagerly (metadata, dictionary
// token lists) are verified through this before use.
func (f *File) VerifyPayload(typ uint32, lang int32) error {
	for i, s := range f.secs {
		if s.Type == typ && s.Lang == lang {
			return f.verifySection(i)
		}
	}
	return fmt.Errorf("flat: no %s section (lang %d)", SectionName(typ), lang)
}

// verifySection digest-verifies section i.
func (f *File) verifySection(i int) error {
	s := f.secs[i]
	if got := sha256.Sum256(f.PayloadOf(s)); got != s.Digest {
		return fmt.Errorf("flat: section %s (lang %d) corrupted: SHA-256 mismatch (directory claims %.12s…, payload is %.12s…)",
			SectionName(s.Type), s.Lang, hex.EncodeToString(s.Digest[:]), hex.EncodeToString(got[:]))
	}
	return nil
}

// Verify digest-verifies every section payload against the directory.
// This is the lazy half of the verification contract: loaders call it
// once on first scoring touch (or eagerly via an explicit Verify API),
// after which every byte the views expose is known to match the
// directory the model digest covers.
func (f *File) Verify() error {
	for i := range f.secs {
		if err := f.verifySection(i); err != nil {
			return err
		}
	}
	return nil
}

// alignUp rounds n up to the next Align boundary.
func alignUp(n uint64) uint64 { return (n + Align - 1) &^ uint64(Align-1) }

// Writer accumulates sections and serialises the container. Payload
// slices are referenced, not copied; they must stay unchanged until
// WriteTo returns.
type Writer struct {
	kind byte
	secs []wsec
}

type wsec struct {
	typ  uint32
	lang int32
	data []byte
}

// NewWriter starts a container of the given kind byte.
func NewWriter(kind byte) *Writer { return &Writer{kind: kind} }

// Add appends a section. lang is the language index for per-language
// sections, -1 for whole-model sections.
func (w *Writer) Add(typ uint32, lang int32, payload []byte) {
	w.secs = append(w.secs, wsec{typ: typ, lang: lang, data: payload})
}

// WriteTo serialises the container: header, directory, then payloads at
// Align-aligned offsets with zero padding between them.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	if len(w.secs) > maxSections {
		return 0, fmt.Errorf("flat: %d sections exceed the %d-section limit", len(w.secs), maxSections)
	}
	dirLen := uint64(len(w.secs)) * EntrySize
	off := alignUp(HeaderSize + dirLen)
	dir := make([]byte, dirLen)
	for i, s := range w.secs {
		e := dir[i*EntrySize:]
		binary.LittleEndian.PutUint32(e[0:4], s.typ)
		binary.LittleEndian.PutUint32(e[4:8], uint32(s.lang))
		binary.LittleEndian.PutUint64(e[8:16], off)
		binary.LittleEndian.PutUint64(e[16:24], uint64(len(s.data)))
		sum := sha256.Sum256(s.data)
		copy(e[24:56], sum[:])
		off = alignUp(off + uint64(len(s.data)))
	}

	var head [HeaderSize]byte
	copy(head[:], magic[:])
	head[len(magic)] = Version
	head[len(magic)+1] = w.kind
	binary.LittleEndian.PutUint64(head[16:24], HeaderSize)
	binary.LittleEndian.PutUint32(head[24:28], uint32(len(w.secs)))
	dirSum := sha256.Sum256(dir)
	copy(head[32:64], dirSum[:])

	var written int64
	emit := func(b []byte) error {
		n, err := out.Write(b)
		written += int64(n)
		return err
	}
	if err := emit(head[:]); err != nil {
		return written, fmt.Errorf("flat: writing header: %w", err)
	}
	if err := emit(dir); err != nil {
		return written, fmt.Errorf("flat: writing directory: %w", err)
	}
	var pad [Align]byte
	cursor := HeaderSize + dirLen
	for _, s := range w.secs {
		if gap := alignUp(cursor) - cursor; gap > 0 {
			if err := emit(pad[:gap]); err != nil {
				return written, fmt.Errorf("flat: writing section padding: %w", err)
			}
			cursor += gap
		}
		if err := emit(s.data); err != nil {
			return written, fmt.Errorf("flat: writing %s section: %w", SectionName(s.typ), err)
		}
		cursor += uint64(len(s.data))
	}
	return written, nil
}
