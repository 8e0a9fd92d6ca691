// Command urllangid-escape is the compiler-truth escape gate: it
// builds every package containing a //urllangid:hotpath function with
// -gcflags=-m, attributes the compiler's escape-analysis and inlining
// diagnostics to the hot-path function bodies they fall in, and
// normalizes them into a manifest diffed against the committed golden
// (api/escape.txt).
//
// The hotpathalloc analyzer bans allocation-inducing *syntax*; this
// gate checks what the compiler actually decided — a value the
// analyzer considers clean can still escape through a subtle capture,
// and an inlining loss can reintroduce call overhead on the classify
// path. The manifest is position-stripped (facts only, no line
// numbers) so moving code without changing its allocation behaviour
// does not churn the golden.
//
// Usage:
//
//	urllangid-escape [-C dir] [-golden file] [-w]
//
// Without -w the computed manifest is diffed against the golden: any
// difference — a new heap escape, a lost inline, a new or removed
// hot-path function — exits 1 with the diff. -w rewrites the golden
// (`make escape-accept`) for intentional changes.
//
// The gate is pinned to one Go release (see ESCAPE_GO_VERSION in the
// Makefile): -m diagnostics are compiler-version-sensitive, and
// diffing them across releases would churn the golden for reasons that
// have nothing to do with this repository's code.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"urllangid/internal/analysis"
)

func main() {
	os.Exit(run(os.Stdout, os.Args[1:]))
}

func run(out io.Writer, args []string) int {
	fs := flag.NewFlagSet("urllangid-escape", flag.ContinueOnError)
	dir := fs.String("C", ".", "module root to analyze")
	golden := fs.String("golden", "api/escape.txt", "golden manifest path, relative to the module root")
	write := fs.Bool("w", false, "rewrite the golden manifest instead of diffing against it")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fns, pkgs, err := hotPackages(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urllangid-escape: %v\n", err)
		return 2
	}
	if len(fns) == 0 {
		fmt.Fprintln(os.Stderr, "urllangid-escape: no //urllangid:hotpath functions found")
		return 2
	}

	diags, err := compilerDiagnostics(*dir, pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urllangid-escape: %v\n", err)
		return 2
	}

	manifest := buildManifest(fns, diags)
	goldenPath := filepath.Join(*dir, *golden)

	if *write {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "urllangid-escape: %v\n", err)
			return 2
		}
		if err := os.WriteFile(goldenPath, []byte(manifest), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "urllangid-escape: %v\n", err)
			return 2
		}
		fmt.Fprintf(out, "wrote %s (%d hot-path functions)\n", goldenPath, len(fns))
		return 0
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urllangid-escape: no golden manifest at %s: %v\nrun 'make escape-accept' to create it\n", goldenPath, err)
		return 1
	}
	if d := diffManifests(string(want), manifest); d != "" {
		fmt.Fprintf(out, "hot-path escape/inline manifest drifted from %s:\n%s", goldenPath, d)
		fmt.Fprintln(out, "run 'make escape-accept' and commit the result if the change is intentional")
		return 1
	}
	return 0
}

// hotPackages returns the module's //urllangid:hotpath functions, each
// File made relative to the module root in slash form (the form
// compiler diagnostics use), and the sorted import paths of the
// packages that declare them (the build set).
func hotPackages(dir string) ([]analysis.HotFunc, []string, error) {
	fns, err := analysis.ScanHotpath(dir, "./...")
	if err != nil {
		return nil, nil, err
	}
	rootAbs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	pkgSet := make(map[string]bool)
	for i := range fns {
		rel, err := filepath.Rel(rootAbs, fns[i].File)
		if err != nil {
			return nil, nil, err
		}
		fns[i].File = filepath.ToSlash(rel)
		pkgSet[fns[i].Pkg] = true
	}
	pkgs := make([]string, 0, len(pkgSet))
	for p := range pkgSet {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	return fns, pkgs, nil
}

// diag is one parsed compiler line.
type diag struct {
	File string // slash-form, cleaned of the leading ./
	Line int
	Msg  string
}

// compilerDiagnostics builds pkgs with -gcflags=-m and parses the
// per-position diagnostics. The compiler replays them from the build
// cache on repeat runs, so the gate needs no cache-busting.
func compilerDiagnostics(dir string, pkgs []string) ([]diag, error) {
	args := append([]string{"build", "-gcflags=-m"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, stderr.String())
	}
	return parseDiagnostics(stderr.String()), nil
}

// parseDiagnostics extracts file:line:col: message lines, skipping the
// "# pkgpath" group headers the build interleaves.
func parseDiagnostics(output string) []diag {
	var diags []diag
	sc := bufio.NewScanner(strings.NewReader(output))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		// file.go:LINE:COL: message
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 || !strings.Contains(parts[0], ".go") {
			continue
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		diags = append(diags, diag{
			File: filepath.ToSlash(filepath.Clean(parts[0])),
			Line: n,
			Msg:  strings.TrimSpace(parts[3]),
		})
	}
	return diags
}

// classify normalizes one compiler message into a manifest fact, or
// ok=false for messages the gate does not track ("inlining call to",
// "leaking param", "does not escape", parameter annotations).
func classify(msg string) (string, bool) {
	switch {
	case strings.HasPrefix(msg, "moved to heap: "):
		return "moved: " + strings.TrimPrefix(msg, "moved to heap: "), true
	case strings.HasSuffix(msg, " escapes to heap"):
		return "escape: " + strings.TrimSuffix(msg, " escapes to heap"), true
	case strings.HasPrefix(msg, "can inline "):
		return "can-inline: " + strings.TrimPrefix(msg, "can inline "), true
	case strings.HasPrefix(msg, "cannot inline "):
		// Keep the name, drop the version-churny reason.
		rest := strings.TrimPrefix(msg, "cannot inline ")
		if i := strings.IndexByte(rest, ':'); i >= 0 {
			rest = rest[:i]
		}
		return "cannot-inline: " + rest, true
	}
	return "", false
}

// buildManifest attributes the diagnostics to hot-path function bodies
// and renders the normalized manifest: one sorted line per function,
// facts deduplicated and sorted, "clean" when the compiler had nothing
// to say.
func buildManifest(fns []analysis.HotFunc, diags []diag) string {
	facts := make(map[string]map[string]bool, len(fns))
	for _, fn := range fns {
		facts[fn.Key] = make(map[string]bool)
	}
	for _, d := range diags {
		fact, ok := classify(d.Msg)
		if !ok {
			continue
		}
		for _, fn := range fns {
			if fn.File == d.File && fn.Start <= d.Line && d.Line <= fn.End {
				facts[fn.Key][fact] = true
				break
			}
		}
	}

	ids := make([]string, 0, len(facts))
	for id := range facts {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var sb strings.Builder
	sb.WriteString("# Hot-path escape/inline manifest: go build -gcflags=-m facts for every\n")
	sb.WriteString("# //urllangid:hotpath function, position-stripped. Regenerate with\n")
	sb.WriteString("# 'make escape-accept'; the gate is pinned to one Go release (Makefile\n")
	sb.WriteString("# ESCAPE_GO_VERSION) because the diagnostics are compiler-version-sensitive.\n")
	for _, id := range ids {
		fs := make([]string, 0, len(facts[id]))
		for f := range facts[id] {
			fs = append(fs, f)
		}
		sort.Strings(fs)
		if len(fs) == 0 {
			fmt.Fprintf(&sb, "%s: clean\n", id)
			continue
		}
		fmt.Fprintf(&sb, "%s: %s\n", id, strings.Join(fs, "; "))
	}
	return sb.String()
}

// diffManifests returns a minimal line diff ("" when equal): removed
// golden lines prefixed -, new lines prefixed +. Line order is stable
// (both sides are sorted manifests), so a plain two-pointer walk is an
// honest diff.
func diffManifests(want, got string) string {
	if want == got {
		return ""
	}
	w := strings.Split(strings.TrimRight(want, "\n"), "\n")
	g := strings.Split(strings.TrimRight(got, "\n"), "\n")
	var sb strings.Builder
	i, j := 0, 0
	for i < len(w) || j < len(g) {
		switch {
		case i >= len(w):
			fmt.Fprintf(&sb, "+%s\n", g[j])
			j++
		case j >= len(g):
			fmt.Fprintf(&sb, "-%s\n", w[i])
			i++
		case w[i] == g[j]:
			i++
			j++
		case w[i] < g[j]:
			fmt.Fprintf(&sb, "-%s\n", w[i])
			i++
		default:
			fmt.Fprintf(&sb, "+%s\n", g[j])
			j++
		}
	}
	return sb.String()
}
