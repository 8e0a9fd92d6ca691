// Command urllangid-lint runs the project's invariant analyzers over
// the given packages and reports violations in file:line:col form.
//
// Usage:
//
//	urllangid-lint [flags] [packages]
//
// Packages default to ./... relative to the current directory; any
// pattern `go list` understands works, including explicit testdata
// directories that wildcards skip. -only runs a comma-separated subset
// of the analyzers, -list names them all, and -C resolves packages
// from another directory. Findings waived by a //urllangid:ignore
// directive are never reported.
//
// The exit status is 0 when the tree is clean, 1 when any finding is
// reported, and 2 on a loading or internal error — the same convention
// as go vet, so `make lint` and CI can distinguish "found a violation"
// from "could not analyze".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"urllangid/internal/analysis"
)

func main() {
	os.Exit(run(os.Stdout, os.Args[1:]))
}

func run(out io.Writer, args []string) int {
	fs := flag.NewFlagSet("urllangid-lint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list available analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	dir := fs.String("C", "", "change to this directory before resolving packages")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Fprintf(out, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected := all
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer, len(all))
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "urllangid-lint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	mod, pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urllangid-lint: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(mod, pkgs, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urllangid-lint: %v\n", err)
		return 2
	}

	for _, d := range diags {
		fmt.Fprintln(out, d.String())
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
