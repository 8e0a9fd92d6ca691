// Package modelfile defines the on-disk containers for urllangid
// models. Every file opens with a fixed magic header, a container
// version and a kind byte, so one loader opens both trained classifiers
// and compiled snapshots and reports which it found, instead of two
// entry points failing with raw decode errors when handed the other's
// file.
//
// Each kind has exactly one encoding:
//
//   - A trained classifier is a version-2 container: the header, a
//     small JSON metadata block carrying the payload's SHA-256 digest,
//     its byte length and the configuration label, then the gob
//     payload. The length and digest are checked before decoding, so a
//     truncated or bit-flipped file fails with a message naming the
//     damage instead of a decode error deep in the payload.
//   - A compiled snapshot is a version-3 container: the flat, mmap-able
//     section layout implemented in the nested flat package, a
//     validated section directory with per-section SHA-256 digests over
//     typed little-endian payloads that serving consumes as views in
//     place. OpenPath maps a v3 file instead of reading it, which makes
//     model open time independent of model size and lets the page cache
//     share one copy of the weights across processes.
//
// Any other encoding fails to load with an error that names what it
// found and the command that writes the current encoding. The metadata
// digest (for v3 files, the directory digest) is the model's content
// identity: the registry compares it to skip no-op reloads and reports
// it per served version. WriteFile replaces a model file by rename, the
// only safe way to redeploy a file a server may have mapped.
package modelfile

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/modelfile/flat"
)

// magic opens every model file. Modeled on the PNG signature: the high
// bit in the first byte breaks text-mode transfers, and no gob stream
// can start with it (a gob message starts with its byte count — either
// one byte < 0x80 or a small negated length count 0xff..0xf8 — never
// 0x89).
var magic = [8]byte{0x89, 'U', 'R', 'L', 'I', 'D', '\r', '\n'}

// The one container version of each kind. Classifiers stay gob: their
// training-time structures gain nothing from mapping.
const (
	versionClassifier byte = 2            // header + meta block + gob payload
	versionSnapshot   byte = flat.Version // flat section layout
)

// Model kinds, stored in the header's kind byte.
const (
	KindClassifier byte = 'C' // a trained core.System
	KindSnapshot   byte = 'S' // a compiled serving snapshot
)

// headerLen is magic + version byte + kind byte.
const headerLen = len(magic) + 2

// maxMetaBytes bounds the metadata block a reader will accept; real
// blocks are ~200 bytes, so anything larger marks a corrupt length
// prefix, not a model.
const maxMetaBytes = 1 << 20

// Meta is the container's metadata block: the payload's content
// identity and enough description to report a model without decoding
// it. It is stored as JSON so foreign tooling can read it.
type Meta struct {
	// Digest is the lowercase hex SHA-256 of the payload bytes (for v3
	// files, of the section directory). It identifies the model content
	// independent of the file path, and is verified on Read.
	Digest string `json:"digest"`
	// PayloadBytes is the exact payload length, letting Read distinguish
	// truncation from corruption.
	PayloadBytes int64 `json:"payload_bytes"`
	// Label is the model's configuration label, e.g. "NB/word".
	Label string `json:"label,omitempty"`
	// Mode is the compiled mode ("linear", "custom", "dtree", "knn",
	// "tld") for snapshot payloads; empty for classifiers.
	Mode string `json:"mode,omitempty"`
}

// KindName names a kind byte for error messages.
func KindName(kind byte) string {
	switch kind {
	case KindClassifier:
		return "trained classifier"
	case KindSnapshot:
		return "compiled snapshot"
	default:
		return fmt.Sprintf("unknown kind 0x%02x", kind)
	}
}

// digestBytes returns the lowercase hex SHA-256 of data, the digest the
// classifier metadata block records for its payload.
func digestBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// WriteClassifier serialises a trained system as a version-2 container:
// header, metadata block, gob payload.
func WriteClassifier(w io.Writer, sys *core.System) error {
	var payload bytes.Buffer
	if err := sys.Save(&payload); err != nil {
		return err
	}
	var h [headerLen]byte
	copy(h[:], magic[:])
	h[len(magic)] = versionClassifier
	h[len(magic)+1] = KindClassifier
	if _, err := w.Write(h[:]); err != nil {
		return fmt.Errorf("writing model header: %w", err)
	}
	meta := Meta{
		Digest:       digestBytes(payload.Bytes()),
		PayloadBytes: int64(payload.Len()),
		Label:        sys.Config.Describe(),
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("encoding model metadata: %w", err)
	}
	var mlen [4]byte
	binary.BigEndian.PutUint32(mlen[:], uint32(len(mb)))
	if _, err := w.Write(mlen[:]); err != nil {
		return fmt.Errorf("writing model metadata: %w", err)
	}
	if _, err := w.Write(mb); err != nil {
		return fmt.Errorf("writing model metadata: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("writing model payload: %w", err)
	}
	return nil
}

// WriteSnapshot serialises a compiled snapshot as a version-3 (flat)
// container: typed sections that later Opens map and consume in place.
func WriteSnapshot(w io.Writer, snap *compiled.Snapshot) error {
	return snap.WriteFlat(w)
}

// WriteFile writes a model file to path by rename. write fills a new
// file in path's directory, which is synced, closed and renamed over
// path, so a process that has the old file open or mapped keeps reading
// the old bytes and no reader ever sees a partial file. The new file is
// created with mode 0666 before umask, as os.Create does. On any error
// the new file is removed and path is left as it was.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	tmp := filepath.Join(dir, "."+base+".tmp"+strconv.FormatUint(rand.Uint64(), 36))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// errNoHeader rejects input that does not start with the container
// header: a model saved before the header existed, or not a model file
// at all.
func errNoHeader(size int64) error {
	return fmt.Errorf("not a model file (%d bytes without the urllangid header that starts every trained classifier and compiled snapshot); a model saved before the header existed must be retrained with %q and recompiled with %q",
		size, "urllangid train", "urllangid compile")
}

// checkVerKind accepts the one encoding of each kind, a version-2
// classifier or a version-3 snapshot. Anything else is rejected with the
// command that writes the current encoding of the declared kind.
func checkVerKind(ver, kind byte) error {
	want, rewrite := versionClassifier, "urllangid train"
	switch kind {
	case KindClassifier:
	case KindSnapshot:
		want, rewrite = versionSnapshot, "urllangid compile"
	default:
		return fmt.Errorf("model file declares %s; this build knows classifiers (%q) and snapshots (%q)",
			KindName(kind), KindClassifier, KindSnapshot)
	}
	if ver != want {
		return fmt.Errorf("model file holds a %s in container version %d; this build reads a %s only in version %d (rewrite the file with %q)",
			KindName(kind), ver, KindName(kind), want, rewrite)
	}
	return nil
}

// readMeta decodes the version-2 metadata block from r.
func readMeta(r io.Reader) (*Meta, error) {
	var mlen [4]byte
	if _, err := io.ReadFull(r, mlen[:]); err != nil {
		return nil, fmt.Errorf("model file truncated in metadata length: %w", err)
	}
	n := binary.BigEndian.Uint32(mlen[:])
	if n > maxMetaBytes {
		return nil, fmt.Errorf("model metadata block claims %d bytes (limit %d): corrupt file", n, maxMetaBytes)
	}
	mb := make([]byte, n)
	if _, err := io.ReadFull(r, mb); err != nil {
		return nil, fmt.Errorf("model file truncated in metadata block: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, fmt.Errorf("decoding model metadata: %w", err)
	}
	return &meta, nil
}

// inspectFlatReader reads a v3 file's directory and metadata section
// from a sequential reader: the directory gives the model digest and
// payload total, and the metadata section — verified against its
// directory digest before use — gives label and mode. Payload sections
// after the metadata are never read.
func inspectFlatReader(br *bufio.Reader) (kind byte, meta *Meta, secs []flat.Section, err error) {
	kind, digest, secs, err := flat.ReadIndex(br)
	if err != nil {
		return 0, nil, nil, err
	}
	var total int64
	var msec *flat.Section
	for i := range secs {
		total += int64(secs[i].Len)
		if secs[i].Type == flat.SecMeta && secs[i].Lang == -1 {
			msec = &secs[i]
		}
	}
	meta = &Meta{Digest: hex.EncodeToString(digest[:]), PayloadBytes: total}
	if msec == nil {
		return kind, meta, secs, nil
	}
	if msec.Len > maxMetaBytes {
		return 0, nil, nil, fmt.Errorf("model metadata section claims %d bytes (limit %d): corrupt file", msec.Len, maxMetaBytes)
	}
	consumed := uint64(flat.HeaderSize) + uint64(len(secs))*flat.EntrySize
	if msec.Off < consumed {
		return 0, nil, nil, fmt.Errorf("model metadata section at offset %d overlaps the directory", msec.Off)
	}
	if _, err := br.Discard(int(msec.Off - consumed)); err != nil {
		return 0, nil, nil, fmt.Errorf("model file truncated before its metadata section: %w", err)
	}
	mb := make([]byte, msec.Len)
	if _, err := io.ReadFull(br, mb); err != nil {
		return 0, nil, nil, fmt.Errorf("model file truncated in metadata section: %w", err)
	}
	if got := sha256.Sum256(mb); got != msec.Digest {
		return 0, nil, nil, fmt.Errorf("model metadata section corrupted: SHA-256 digest mismatch")
	}
	var fm struct {
		Label string `json:"label"`
		Mode  string `json:"mode"`
	}
	if err := json.Unmarshal(mb, &fm); err != nil {
		return 0, nil, nil, fmt.Errorf("decoding model metadata: %w", err)
	}
	meta.Label, meta.Mode = fm.Label, fm.Mode
	return kind, meta, secs, nil
}

// SectionInfo describes one v3 section for inspection output.
type SectionInfo struct {
	// Name is the section type name (e.g. "weights", "strtab-blob").
	Name string `json:"name"`
	// Lang is the language index for per-language sections, -1
	// otherwise.
	Lang int32 `json:"lang"`
	// Off and Len locate the payload in the file.
	Off uint64 `json:"off"`
	Len uint64 `json:"len"`
	// Digest is the payload's lowercase hex SHA-256.
	Digest string `json:"digest"`
}

// Info is a model file's full inspection report: what InspectFile
// learns without decoding any model payload.
type Info struct {
	// Version is the container version: 2 for classifiers, 3 for
	// snapshots.
	Version byte `json:"version"`
	// Kind is the kind byte (KindClassifier or KindSnapshot).
	Kind byte `json:"-"`
	// Meta is the metadata block. For version-3 files the digest is the
	// model digest from the header.
	Meta *Meta `json:"meta,omitempty"`
	// Sections is the v3 section directory, in file order; nil for
	// classifiers.
	Sections []SectionInfo `json:"sections,omitempty"`
}

// InspectFile reports what the file at path holds — container version,
// kind, metadata, and (for v3) the full section directory — without
// decoding any model payload. A file in any other encoding fails with
// the same error ReadBytes gives.
func InspectFile(path string) (*Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	head, err := br.Peek(headerLen)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if len(head) < headerLen || !bytes.Equal(head[:len(magic)], magic[:]) {
		return nil, errNoHeader(st.Size())
	}
	ver, kind := head[len(magic)], head[len(magic)+1]
	if err := checkVerKind(ver, kind); err != nil {
		return nil, err
	}
	if kind == KindClassifier {
		if _, err := br.Discard(headerLen); err != nil {
			return nil, fmt.Errorf("reading model header: %w", err)
		}
		meta, err := readMeta(br)
		if err != nil {
			return nil, err
		}
		return &Info{Version: ver, Kind: kind, Meta: meta}, nil
	}
	kind, meta, secs, err := inspectFlatReader(br)
	if err != nil {
		return nil, err
	}
	// The directory is internally consistent (its digest matched), but a
	// truncated copy can still carry a directory whose sections point
	// past the end of the file. The file size is known here, so reject
	// that without reading any payload.
	size := uint64(st.Size())
	for _, s := range secs {
		if s.Off > size || s.Len > size-s.Off {
			return nil, fmt.Errorf("%s section [%d,+%d) extends past the %d-byte file: truncated copy",
				flat.SectionName(s.Type), s.Off, s.Len, size)
		}
	}
	info := &Info{Version: ver, Kind: kind, Meta: meta, Sections: make([]SectionInfo, len(secs))}
	for i, s := range secs {
		info.Sections[i] = SectionInfo{
			Name:   flat.SectionName(s.Type),
			Lang:   s.Lang,
			Off:    s.Off,
			Len:    s.Len,
			Digest: hex.EncodeToString(s.Digest[:]),
		}
	}
	return info, nil
}

// Read loads a model of either kind from r, returning exactly one of
// (sys, snap) non-nil. It buffers the stream and delegates to ReadBytes.
func Read(r io.Reader) (sys *core.System, snap *compiled.Snapshot, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("reading model data: %w", err)
	}
	sys, snap, _, err = ReadBytes(data)
	return sys, snap, err
}

// ReadBytes loads a model of either kind from an in-memory file image,
// returning exactly one of (sys, snap) non-nil plus the file's metadata.
// A snapshot's views and a classifier's payload are sliced out of data,
// not copied. A classifier payload is verified against its recorded
// length and digest before decoding. Any encoding other than a
// version-2 classifier or a version-3 snapshot is rejected.
func ReadBytes(data []byte) (sys *core.System, snap *compiled.Snapshot, meta *Meta, err error) {
	if len(data) < headerLen || !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, nil, nil, errNoHeader(int64(len(data)))
	}
	kind := data[len(magic)+1]
	if err := checkVerKind(data[len(magic)], kind); err != nil {
		return nil, nil, nil, err
	}
	if kind == KindSnapshot {
		snap, meta, err := readFlatBytes(data, nil)
		return nil, snap, meta, err
	}
	r := bytes.NewReader(data[headerLen:])
	meta, err = readMeta(r)
	if err != nil {
		return nil, nil, nil, err
	}
	payload := data[len(data)-r.Len():]
	switch {
	case int64(len(payload)) < meta.PayloadBytes:
		return nil, nil, nil, fmt.Errorf("model payload truncated: %d of %d bytes (re-copy the file)", len(payload), meta.PayloadBytes)
	case int64(len(payload)) > meta.PayloadBytes:
		return nil, nil, nil, fmt.Errorf("model file carries %d bytes beyond its declared %d-byte payload (corrupted or concatenated)", int64(len(payload))-meta.PayloadBytes, meta.PayloadBytes)
	}
	if got := digestBytes(payload); got != meta.Digest {
		return nil, nil, nil, fmt.Errorf("model payload corrupted: SHA-256 digest mismatch (file claims %.12s…, content is %.12s…)", meta.Digest, got)
	}
	sys, err = core.Load(bytes.NewReader(payload))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("loading %s payload: %w", KindName(kind), err)
	}
	return sys, nil, meta, nil
}

// readFlatBytes loads a v3 flat container over data, handing the
// snapshot views directly into data (which may be a live mapping owned
// by mapping, or heap bytes with mapping nil). The synthesised Meta
// carries the model digest from the header — the directory hash, which
// via the per-section digests identifies the full content without
// hashing the payloads.
func readFlatBytes(data []byte, mapping *flat.Mapping) (*compiled.Snapshot, *Meta, error) {
	f, err := flat.Parse(data)
	if err != nil {
		return nil, nil, err
	}
	snap, err := compiled.LoadFlat(f, mapping)
	if err != nil {
		return nil, nil, fmt.Errorf("loading %s payload: %w", KindName(KindSnapshot), err)
	}
	meta := &Meta{
		Digest:       f.ModelDigest(),
		PayloadBytes: f.PayloadBytes(),
		Label:        snap.Describe(),
		Mode:         snap.Mode(),
	}
	return snap, meta, nil
}

// OpenedModel is OpenPath's result: exactly one of Sys and Snap is
// non-nil, plus the file's metadata.
type OpenedModel struct {
	// Sys is the trained system for classifier files.
	Sys *core.System
	// Snap is the compiled snapshot for snapshot files. It is backed by
	// a memory mapping and must be Closed after last use.
	Snap *compiled.Snapshot
	// Meta is the file's metadata. Its Digest is the content identity
	// under which reloads compare; for snapshots it comes from the
	// header alone (the directory hash), so computing it never touches
	// the payloads.
	Meta *Meta
}

// OpenPath opens the model file at path through the cheapest route its
// kind allows: a v3 snapshot is memory-mapped (read fallback where mmap
// is unavailable) and its snapshot views the mapping in place, so open
// cost is independent of model size, while a classifier is read and
// decoded. Any other encoding fails as ReadBytes fails. The caller owns
// the returned snapshot's backing mapping via Snapshot.Close.
func OpenPath(path string) (*OpenedModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// A file shorter than the header is still read in full below, so
	// ReadBytes reports it; real I/O errors fail here.
	var head [headerLen]byte
	n, err := io.ReadFull(f, head[:])
	f.Close()
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if n == headerLen && head[len(magic)+1] == KindSnapshot && flat.IsFlat(head[:]) {
		m, err := flat.MapPath(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		snap, meta, err := readFlatBytes(m.Bytes(), m)
		if err != nil {
			m.Release()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &OpenedModel{Snap: snap, Meta: meta}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sys, snap, meta, err := ReadBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &OpenedModel{Sys: sys, Snap: snap, Meta: meta}, nil
}
