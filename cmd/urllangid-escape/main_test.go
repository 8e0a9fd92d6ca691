package main

import (
	"runtime"
	"strings"
	"testing"

	"urllangid/internal/analysis"
)

// sample mirrors real `go build -gcflags=-m` output: group headers,
// inline facts, escapes, moved-to-heap, and the message kinds the gate
// deliberately ignores.
const sample = `# urllangid/internal/urlx
internal/urlx/urlx.go:405:6: can inline unhex
internal/urlx/urlx.go:187:21: inlining call to unhex
internal/urlx/urlx.go:144:11: make([]byte, 0, len(s)) escapes to heap
internal/urlx/urlx.go:150:7: s does not escape
internal/urlx/urlx.go:151:6: leaking param: dst to result ~r0 level=0
# urllangid
./batcher.go:69:6: moved to heap: cfg
./batcher.go:120:6: cannot inline Flush: function too complex: cost 143 exceeds budget 80
not a diagnostic line
`

func TestParseDiagnostics(t *testing.T) {
	diags := parseDiagnostics(sample)
	if len(diags) != 7 {
		t.Fatalf("parsed %d diagnostics, want 7: %+v", len(diags), diags)
	}
	first := diags[0]
	if first.File != "internal/urlx/urlx.go" || first.Line != 405 || first.Msg != "can inline unhex" {
		t.Errorf("first diag = %+v", first)
	}
	// The ./ prefix on root-package files must be cleaned so attribution
	// by relative path works.
	if diags[5].File != "batcher.go" {
		t.Errorf("root-package file = %q, want batcher.go", diags[5].File)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		msg  string
		fact string
		ok   bool
	}{
		{"make([]byte, 0, 64) escapes to heap", "escape: make([]byte, 0, 64)", true},
		{"moved to heap: cfg", "moved: cfg", true},
		{"can inline (*Histogram).Observe", "can-inline: (*Histogram).Observe", true},
		{"cannot inline Flush: function too complex: cost 143 exceeds budget 80", "cannot-inline: Flush", true},
		// Untracked kinds: position-churn without allocation meaning.
		{"inlining call to unhex", "", false},
		{"s does not escape", "", false},
		{"leaking param: dst to result ~r0 level=0", "", false},
	}
	for _, c := range cases {
		fact, ok := classify(c.msg)
		if fact != c.fact || ok != c.ok {
			t.Errorf("classify(%q) = %q, %v; want %q, %v", c.msg, fact, ok, c.fact, c.ok)
		}
	}
}

func TestBuildManifestAttribution(t *testing.T) {
	fns := []analysis.HotFunc{
		{Key: "mod/pkg.Hot", File: "pkg/f.go", Start: 10, End: 20},
		{Key: "mod/pkg.Cold", File: "pkg/f.go", Start: 30, End: 40},
		{Key: "mod/other.T.M", File: "other/g.go", Start: 5, End: 9},
	}
	diags := []diag{
		{File: "pkg/f.go", Line: 12, Msg: "x escapes to heap"},
		{File: "pkg/f.go", Line: 12, Msg: "x escapes to heap"}, // duplicate collapses
		{File: "pkg/f.go", Line: 10, Msg: "can inline Hot"},
		{File: "pkg/f.go", Line: 25, Msg: "y escapes to heap"},   // between functions: unattributed
		{File: "other/g.go", Line: 7, Msg: "inlining call to z"}, // untracked kind
	}
	m := buildManifest(fns, diags)
	for _, wantLine := range []string{
		"mod/pkg.Hot: can-inline: Hot; escape: x\n",
		"mod/pkg.Cold: clean\n",
		"mod/other.T.M: clean\n",
	} {
		if !strings.Contains(m, wantLine) {
			t.Errorf("manifest missing %q:\n%s", wantLine, m)
		}
	}
	// Function lines are sorted by ID for a stable golden.
	if strings.Index(m, "mod/other.T.M") > strings.Index(m, "mod/pkg.Cold") {
		t.Errorf("manifest not sorted by function ID:\n%s", m)
	}
}

func TestDiffManifests(t *testing.T) {
	want := "# header\na: clean\nb: escape: x\n"
	if d := diffManifests(want, want); d != "" {
		t.Errorf("identical manifests diff = %q", d)
	}
	got := "# header\na: escape: make([]byte, 8)\nb: escape: x\n"
	d := diffManifests(want, got)
	if !strings.Contains(d, "-a: clean") || !strings.Contains(d, "+a: escape: make([]byte, 8)") {
		t.Errorf("diff missing changed lines:\n%s", d)
	}
	if strings.Contains(d, "b: escape") {
		t.Errorf("diff mentions unchanged line:\n%s", d)
	}
}

// TestGateEndToEnd runs discovery + build + diff against the committed
// golden from the module root: the compiler replays cached diagnostics
// so repeat runs are cheap, and the test proves the gate passes on the
// tree as committed.
func TestGateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds hot packages with -gcflags=-m")
	}
	if !strings.HasPrefix(runtime.Version(), "go1.24") {
		// Keep in sync with ESCAPE_GO_VERSION in the Makefile: -m output
		// differs across compiler releases, and the golden is pinned.
		t.Skipf("escape golden pinned to go1.24; running %s", runtime.Version())
	}
	var out strings.Builder
	if code := run(&out, []string{"-C", "../.."}); code != 0 {
		t.Fatalf("escape gate failed on the committed tree (exit %d):\n%s", code, out.String())
	}
}
