package urllangid_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"urllangid"
)

func TestOpenDetectsKind(t *testing.T) {
	clf, err := urllangid.Train(urllangid.Options{Seed: 12}, trainSamples(t, 300))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := urllangid.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*urllangid.Classifier); !ok {
		t.Fatalf("classifier file opened as %T", m)
	}

	buf.Reset()
	if err := clf.Compile().Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err = urllangid.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*urllangid.Snapshot); !ok {
		t.Fatalf("snapshot file opened as %T", m)
	}
}

// TestWrongKindErrorsNameTheFormat pins the satellite fix: feeding the
// wrong kind to Load/LoadSnapshot must produce an error that names what
// the file actually holds and where to take it — not a raw gob error.
func TestWrongKindErrorsNameTheFormat(t *testing.T) {
	clf, err := urllangid.Train(urllangid.Options{Seed: 13}, trainSamples(t, 300))
	if err != nil {
		t.Fatal(err)
	}
	var clfFile, snapFile bytes.Buffer
	if err := clf.Save(&clfFile); err != nil {
		t.Fatal(err)
	}
	if err := clf.Compile().Save(&snapFile); err != nil {
		t.Fatal(err)
	}

	_, err = urllangid.Load(bytes.NewReader(snapFile.Bytes()))
	if err == nil {
		t.Fatal("Load accepted a snapshot file")
	}
	for _, want := range []string{"compiled snapshot", "LoadSnapshot"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Load wrong-kind error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "gob") {
		t.Errorf("Load wrong-kind error leaks a gob error: %q", err)
	}

	_, err = urllangid.LoadSnapshot(bytes.NewReader(clfFile.Bytes()))
	if err == nil {
		t.Fatal("LoadSnapshot accepted a classifier file")
	}
	for _, want := range []string{"trained classifier", "Load"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("LoadSnapshot wrong-kind error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "gob") {
		t.Errorf("LoadSnapshot wrong-kind error leaks a gob error: %q", err)
	}
}

func TestOpenRejectsGarbageNamingFormats(t *testing.T) {
	// Garbage large enough to be a plausible model gets an error naming
	// both accepted formats.
	big := bytes.Repeat([]byte("definitely not a model, just prose. "), 8)
	_, err := urllangid.Open(bytes.NewReader(big))
	if err == nil {
		t.Fatal("Open accepted garbage")
	}
	if !strings.Contains(err.Error(), "classifier") || !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("garbage error %q does not name the accepted formats", err)
	}

	// Empty and too-short input — the classic "served an empty file"
	// mistake — states the byte count instead of a gob/EOF error.
	for _, data := range [][]byte{nil, []byte("definitely not a model")} {
		_, err := urllangid.Open(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("Open accepted %d bytes", len(data))
		}
		if want := fmt.Sprintf("not a model file (%d bytes", len(data)); !strings.Contains(err.Error(), want) {
			t.Errorf("short-input error %q does not contain %q", err, want)
		}
	}
}
