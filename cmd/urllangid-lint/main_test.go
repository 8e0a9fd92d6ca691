package main

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestRunList pins the CLI contract the Makefile and CI lean on:
// -list names exactly the registered analyzers, in order, and exits 0.
func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if code := run(&out, []string{"-list"}); code != 0 {
		t.Fatalf("run(-list) = %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{"hotpathalloc", "pinpair", "modelfileio", "lockorder"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("-list names %v, want %v:\n%s", names, want, out.String())
	}
}

// TestRunUnknownAnalyzer pins the exit-status convention: a selection
// error is a usage error (2), not a clean run or a violation.
func TestRunUnknownAnalyzer(t *testing.T) {
	if code := run(io.Discard, []string{"-only", "nosuchanalyzer"}); code != 2 {
		t.Fatalf("run(-only nosuchanalyzer) = %d, want 2", code)
	}
}

// TestRunBadFlag pins flag-parse failures to exit status 2, including
// the retired -json and -tests modes.
func TestRunBadFlag(t *testing.T) {
	for _, flag := range []string{"-definitely-not-a-flag", "-json", "-tests"} {
		if code := run(io.Discard, []string{flag}); code != 2 {
			t.Errorf("run(%s) = %d, want 2", flag, code)
		}
	}
}

// TestRunSelection exercises -only parsing with spaces and multiple
// names against the golden pinpair corpus, which must report at least
// one violation (exit 1) — proving selection reaches Run end to end.
func TestRunSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a testdata package")
	}
	code := run(io.Discard, []string{
		"-C", "../..",
		"-only", " pinpair ",
		"./internal/analysis/testdata/src/pinpair",
	})
	if code != 1 {
		t.Fatalf("run(pinpair corpus) = %d, want 1 (corpus contains deliberate violations)", code)
	}
}

// TestRunHumanOmitsSuppressed pins that the report never shows a
// finding waived by an ignore directive (the corpus's pinned case).
func TestRunHumanOmitsSuppressed(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a testdata package")
	}
	var out bytes.Buffer
	run(&out, []string{
		"-C", "../..",
		"-only", "pinpair",
		"./internal/analysis/testdata/src/pinpair",
	})
	if strings.Contains(out.String(), "in pinned") {
		t.Errorf("human output shows the suppressed 'pinned' finding:\n%s", out.String())
	}
}
