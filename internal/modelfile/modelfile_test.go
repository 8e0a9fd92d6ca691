package modelfile

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/datagen"
	"urllangid/internal/features"
	"urllangid/internal/modelfile/flat"
)

var (
	sysOnce sync.Once
	testSys *core.System
)

func system(t testing.TB) *core.System {
	t.Helper()
	sysOnce.Do(func() {
		ds := datagen.Generate(datagen.Config{
			Kind: datagen.ODP, Seed: 71, TrainPerLang: 300, TestPerLang: 1,
		})
		sys, err := core.Train(core.Config{Algo: core.NaiveBayes, Features: features.Words, Seed: 71}, ds.Train)
		if err != nil {
			panic(err)
		}
		testSys = sys
	})
	return testSys
}

func TestHeaderedClassifierRoundTrip(t *testing.T) {
	sys := system(t)
	var buf bytes.Buffer
	if err := WriteClassifier(&buf, sys); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[0]; got != 0x89 {
		t.Fatalf("header starts with 0x%02x, want 0x89", got)
	}
	loadedSys, loadedSnap, meta, err := ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loadedSnap != nil || loadedSys == nil {
		t.Fatalf("classifier file read as (sys=%v snap=%v)", loadedSys != nil, loadedSnap != nil)
	}
	if meta == nil {
		t.Fatal("current-format classifier file carries no metadata")
	}
	if meta.Label != "NB/word" || meta.Mode != "" {
		t.Errorf("classifier meta = %+v, want label NB/word and no mode", meta)
	}
	if len(meta.Digest) != 64 || meta.PayloadBytes <= 0 {
		t.Errorf("classifier meta digest/size = %q/%d", meta.Digest, meta.PayloadBytes)
	}
	u := "http://www.wetter-bericht.de/heute"
	if loadedSys.Scores(u) != sys.Scores(u) {
		t.Error("round-tripped classifier scores differ")
	}
}

func TestHeaderedSnapshotRoundTrip(t *testing.T) {
	snap := compiled.FromSystem(system(t))
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	loadedSys, loadedSnap, meta, err := ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loadedSys != nil || loadedSnap == nil {
		t.Fatalf("snapshot file read as (sys=%v snap=%v)", loadedSys != nil, loadedSnap != nil)
	}
	if meta == nil || meta.Label != "NB/word" || meta.Mode != "linear" {
		t.Fatalf("snapshot meta = %+v, want NB/word in linear mode", meta)
	}
	u := "http://www.wetter-bericht.de/heute"
	if loadedSnap.Scores(u) != snap.Scores(u) {
		t.Error("round-tripped snapshot scores differ")
	}
}

// writeTemp writes data to a file named name under dir.
func writeTemp(t testing.TB, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestInspect pins the cheap no-decode path: InspectFile reports kind
// and metadata with the same digest Read verifies. For a classifier
// that is the digest of exactly the payload bytes; for a v3 snapshot it
// is the directory digest, recoverable from the header alone.
func TestInspect(t *testing.T) {
	dir := t.TempDir()
	var clf bytes.Buffer
	if err := WriteClassifier(&clf, system(t)); err != nil {
		t.Fatal(err)
	}
	info, err := InspectFile(writeTemp(t, dir, "m.model", clf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.Kind != KindClassifier || info.Meta == nil || info.Meta.Label != "NB/word" || info.Sections != nil {
		t.Fatalf("InspectFile(classifier) = %+v", info)
	}
	payload := clf.Bytes()[clf.Len()-int(info.Meta.PayloadBytes):]
	if digestBytes(payload) != info.Meta.Digest {
		t.Error("stored digest does not cover the payload bytes")
	}

	var v3 bytes.Buffer
	if err := WriteSnapshot(&v3, compiled.FromSystem(system(t))); err != nil {
		t.Fatal(err)
	}
	info, err = InspectFile(writeTemp(t, dir, "m.snapshot", v3.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 3 || info.Kind != KindSnapshot || info.Meta == nil || info.Meta.Mode != "linear" || len(info.Sections) == 0 {
		t.Fatalf("InspectFile(v3) = %+v", info)
	}
	_, dirDigest, _, err := flat.ReadIndex(bytes.NewReader(v3.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Meta.Digest != hex.EncodeToString(dirDigest[:]) {
		t.Errorf("InspectFile(v3) digest %s != directory digest %x", info.Meta.Digest, dirDigest)
	}
	if _, _, meta, err := ReadBytes(v3.Bytes()); err != nil || meta.Digest != info.Meta.Digest {
		t.Errorf("ReadBytes(v3) digest = %v, %v; InspectFile says %s", meta, err, info.Meta.Digest)
	}
}

// TestDeterministicDigest: saving the same model twice must produce the
// same digest, or the registry's skip-unchanged reload check would
// always see a change.
func TestDeterministicDigest(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteClassifier(&a, system(t)); err != nil {
		t.Fatal(err)
	}
	if err := WriteClassifier(&b, system(t)); err != nil {
		t.Fatal(err)
	}
	_, _, ma, err := ReadBytes(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	_, _, mb, err := ReadBytes(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ma.Digest != mb.Digest {
		t.Errorf("digests differ across identical saves: %s vs %s", ma.Digest, mb.Digest)
	}
}

// TestReadRejectsEmptyAndTruncated is the satellite's table: inputs an
// operator actually produces by accident — empty files, half-copied
// files, text mistaken for a model — must fail with an error that says
// what the input is (and how many bytes it was), never a raw gob/EOF
// decode error.
func TestReadRejectsEmptyAndTruncated(t *testing.T) {
	var full bytes.Buffer
	if err := WriteClassifier(&full, system(t)); err != nil {
		t.Fatal(err)
	}
	fb := full.Bytes()
	corrupt := bytes.Clone(fb)
	corrupt[len(corrupt)-1] ^= 0xff

	cases := []struct {
		name string
		data []byte
		want string // substring the error must contain
		not  string // substring it must not contain
	}{
		{"empty", nil, "not a model file (0 bytes", "EOF"},
		{"one byte", []byte{7}, "not a model file (1 bytes", "gob"},
		{"three bytes", []byte{1, 2, 3}, "not a model file (3 bytes", "gob"},
		{"truncated magic", fb[:5], "not a model file (5 bytes", "EOF"},
		{"header only", fb[:headerLen], "truncated in metadata", ""},
		{"cut in metadata block", fb[:headerLen+9], "truncated in metadata", ""},
		{"cut in payload", fb[:len(fb)*3/4], "payload truncated", "gob"},
		{"trailing garbage", append(bytes.Clone(fb), "oops"...), "beyond its declared", "truncated"},
		{"flipped payload byte", corrupt, "digest mismatch", "gob"},
		{"small text", []byte("hello"), "not a model file (5 bytes", "gob"},
		{"large text", bytes.Repeat([]byte("not a model file at all, just text. "), 4), "not a model file (144 bytes", ""},
		{"large noise", bytes.Repeat([]byte{0xff, 0x00, 0x55}, 50), "not a model file (150 bytes", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Read(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("Read accepted %d bytes of %s", len(tc.data), tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
			if tc.not != "" && strings.Contains(err.Error(), tc.not) {
				t.Errorf("error %q leaks %q", err, tc.not)
			}
		})
	}
}

// encodingCase is one model file this build must reject, with the
// substring its error must contain.
type encodingCase struct {
	name string
	data []byte
	want string
}

// retiredEncodings builds one file of sys in each encoding earlier
// releases wrote and this build no longer reads: a headerless
// classifier gob, a version-1 container of each kind, and a version-2
// snapshot. Each
// error must name the command that writes the current encoding.
func retiredEncodings(t testing.TB, sys *core.System) []encodingCase {
	t.Helper()
	var gob, v2 bytes.Buffer
	if err := sys.Save(&gob); err != nil {
		t.Fatal(err)
	}
	if err := WriteClassifier(&v2, sys); err != nil {
		t.Fatal(err)
	}
	v1 := func(kind byte) []byte {
		return append(append(bytes.Clone(magic[:]), 1, kind), gob.Bytes()...)
	}
	v2snap := bytes.Clone(v2.Bytes())
	v2snap[len(magic)+1] = KindSnapshot
	return []encodingCase{
		{"headerless classifier gob", gob.Bytes(), `"urllangid train"`},
		{"v1 classifier", v1(KindClassifier), `"urllangid train"`},
		{"v1 snapshot", v1(KindSnapshot), `"urllangid compile"`},
		{"v2 snapshot", v2snap, `"urllangid compile"`},
	}
}

// TestReadRejectsUnknownKindAndVersion: every encoding other than a
// version-2 classifier or a version-3 snapshot fails in ReadBytes,
// OpenPath and InspectFile alike, with an error that names what it
// found and, for a known kind, the command that rewrites it.
func TestReadRejectsUnknownKindAndVersion(t *testing.T) {
	cases := append(retiredEncodings(t, system(t)),
		encodingCase{"unknown kind", append(append(bytes.Clone(magic[:]), versionClassifier, 'Z'), make([]byte, 64)...), "unknown kind"},
		encodingCase{"v3 classifier", append(bytes.Clone(magic[:]), versionSnapshot, KindClassifier), `"urllangid train"`},
		encodingCase{"future snapshot version", append(bytes.Clone(magic[:]), versionSnapshot+1, KindSnapshot), "container version 4"},
	)
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTemp(t, dir, strings.ReplaceAll(tc.name, " ", "-"), tc.data)
			check := func(entry string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted a %s", entry, tc.name)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s error %q does not contain %s", entry, err, tc.want)
				}
			}
			sys, snap, meta, err := ReadBytes(tc.data)
			if sys != nil || snap != nil || meta != nil {
				t.Errorf("ReadBytes returned a model alongside %v", err)
			}
			check("ReadBytes", err)
			om, err := OpenPath(path)
			if om != nil {
				t.Errorf("OpenPath returned a model alongside %v", err)
			}
			check("OpenPath", err)
			info, err := InspectFile(path)
			if info != nil {
				t.Errorf("InspectFile returned a report alongside %v", err)
			}
			check("InspectFile", err)
		})
	}
}

// TestWriteFile pins the rename write: the new file gets the mode
// os.Create gives, a reader holding the old file keeps the old bytes,
// and a failed write leaves the old file and no temporary file behind.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.snapshot")
	put := func(data string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, data)
			return err
		}
	}
	if err := WriteFile(path, put("old")); err != nil {
		t.Fatal(err)
	}
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if rst, err := os.Stat(ref.Name()); err != nil || st.Mode() != rst.Mode() {
		t.Errorf("WriteFile made mode %v, os.Create makes %v (%v)", st.Mode(), rst.Mode(), err)
	}

	held, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if err := WriteFile(path, put("new")); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(held); err != nil || string(got) != "old" {
		t.Errorf("reader of the replaced file got %q, %v; want the old bytes", got, err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Errorf("path holds %q, %v; want the new bytes", got, err)
	}

	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("failed write returned %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Errorf("failed write left %q, %v; want the previous file", got, err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Errorf("directory holds %v, %v; want only the model and the reference file", entries, err)
	}
}

func TestKindName(t *testing.T) {
	if KindName(KindClassifier) != "trained classifier" || KindName(KindSnapshot) != "compiled snapshot" {
		t.Error("kind names changed")
	}
	if !strings.Contains(KindName(0x7f), "0x7f") {
		t.Error("unknown kind name lacks the byte value")
	}
}
