// Package analysistest checks one analyzer against a golden testdata
// package, mirroring golang.org/x/tools/go/analysis/analysistest:
// expectations live in the testdata source as trailing
//
//	// want "pattern" ["pattern" ...]
//
// comments, where each pattern is a regular expression (in practice a
// message substring) that exactly one diagnostic on that line must
// match. Diagnostics without a matching want, and wants without a
// matching diagnostic, both fail the test, so the golden packages pin
// false negatives and false positives at the same time.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"urllangid/internal/analysis"
)

// quotedRE extracts the Go-quoted pattern strings from a want comment.
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

type loc struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads the package matched by pattern (a go list pattern relative
// to the test's working directory — wildcards skip testdata, so golden
// packages are named explicitly), applies exactly one analyzer, and
// matches the diagnostics against the package's want comments.
func Run(t *testing.T, a *analysis.Analyzer, pattern string) {
	t.Helper()
	mod, pkgs, err := analysis.Load("", pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	diags, err := analysis.Run(mod, pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pattern, err)
	}

	wants := make(map[loc][]*want)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					at := loc{pos.Filename, pos.Line}
					for _, q := range quotedRE.FindAllString(c.Text[idx:], -1) {
						s, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: unquoting want pattern %s: %v", pos.Filename, pos.Line, q, err)
						}
						re, err := regexp.Compile(s)
						if err != nil {
							t.Fatalf("%s:%d: compiling want pattern %q: %v", pos.Filename, pos.Line, s, err)
						}
						wants[at] = append(wants[at], &want{re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		at := loc{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[at] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d.String())
		}
	}
	for at, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matched want %q", at.file, at.line, w.re.String())
			}
		}
	}
}
