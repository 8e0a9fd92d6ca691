// Package analysis is the project-invariant analyzer suite behind
// cmd/urllangid-lint: four custom static analyzers that machine-check
// contracts the test suite only pins at single points — the zero-
// allocation classify hot path, the one release shape for a registry
// lease, the modelfile truncation guards, and the module-wide mutex
// acquisition order (and the no-blocking-under-lock rule). Typed atomics need no analyzer of
// their own: go vet's copylocks check flags every copy of one.
//
// Every analyzer works on the syntax tree. lockorder's must-analysis
// walks each function body in source order, meeting branches and
// iterating loops to a fixpoint as it goes; pinpair needs no paths at
// all, because it accepts only a shape that releases on every one.
//
// The suite is deliberately self-contained: analyzers are written
// against a small mirror of the golang.org/x/tools/go/analysis shape
// (Analyzer, Pass, Reportf) but run on the standard library's go/ast,
// go/types and go/importer alone, so the lint binary builds from the
// repository with no tool-time network fetch. The loader resolves
// packages with `go list -json` and type-checks them from source,
// which keeps the analyzers fully typed — selector resolution, method
// sets, constant folding — without export data.
//
// # Directives
//
// Two magic comments drive the suite:
//
//	//urllangid:hotpath
//
// in a function's doc comment marks it as part of the allocation-free
// serving contract. hotpathalloc checks the marked function and every
// same-package function it statically reaches; a call that crosses a
// package boundary within the module must target another marked
// function, which is how the contract is threaded through urlx,
// features, strtab, ngram, obs and the registry without whole-program
// analysis.
//
//	//urllangid:ignore <analyzer>[,<analyzer>...] <reason>
//
// trailing the offending line (or alone on the line above it)
// suppresses the named analyzers' diagnostics for the line — a line
// flagged by two analyzers lists both, comma-separated, under one
// directive. The reason is mandatory prose: every suppression in the
// tree documents why the flagged construct is deliberate (a cold error
// path, a documented non-0-alloc mode) rather than silently waived.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. The shape mirrors
// golang.org/x/tools/go/analysis so the checkers read like standard
// analyzers, even though the driver underneath is project-local.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -only flags and
	// //urllangid:ignore directives.
	Name string
	// Doc is the one-paragraph contract description shown by -list.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
	// Done, when non-nil, runs once after every package has been
	// analyzed. It is the module-wide finalization hook: analyzers that
	// accumulate cross-package facts during Run (lockorder's
	// acquisition-order graph) report the global findings here. report
	// positions resolve through the module FileSet.
	Done func(mod *Module, report func(pos token.Pos, format string, args ...any))
}

// A Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Module carries the module-wide facts (the hotpath annotation
	// set) gathered by the loader before any analyzer runs.
	Module *Module

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned for file:line:col printing.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		HotpathAlloc,
		PinPair,
		ModelFileIO,
		LockOrder,
	}
}

// Run executes the analyzers over the loaded packages and returns the
// findings not waived by a //urllangid:ignore directive, sorted by
// position. Analyzers with a Done hook get it after the last package,
// which is where module-wide findings (lockorder cycles) materialise.
func Run(mod *Module, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     mod.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Module:   mod,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Done == nil {
			continue
		}
		name := a.Name
		a.Done(mod, func(pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Analyzer: name,
				Pos:      mod.Fset.Position(pos),
				Message:  fmt.Sprintf(format, args...),
			})
		})
	}
	diags = suppress(mod.Fset, pkgs, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// ignoreDirective parses
// "//urllangid:ignore <analyzer>[,<analyzer>...] <reason>", returning
// the analyzer names (nil when c is not an ignore directive or names
// no analyzer). One directive may waive several analyzers for the same
// line — comma-separated, no spaces around the commas — so a line
// flagged twice does not need two stacked directives. A directive
// without a reason is returned with ok=false so the driver can reject
// undocumented suppressions.
func ignoreDirective(text string) (analyzers []string, ok bool) {
	const prefix = "//urllangid:ignore"
	if !strings.HasPrefix(text, prefix) {
		return nil, false
	}
	fields := strings.Fields(text[len(prefix):])
	if len(fields) == 0 {
		return nil, false
	}
	names := strings.Split(fields[0], ",")
	out := names[:0]
	for _, n := range names {
		if n != "" {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nil, false
	}
	if len(fields) < 2 {
		// Analyzer names but no reason: not a valid suppression. The
		// caller reports it.
		return out, false
	}
	return out, true
}

// suppress drops diagnostics whose line carries (or whose previous
// line is exactly) a matching ignore directive, and synthesises
// diagnostics for malformed directives so a reason can never be
// omitted silently.
func suppress(fset *token.FileSet, pkgs []*Package, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
		name string
	}
	ignored := make(map[key]bool)
	var malformed []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, ok := ignoreDirective(c.Text)
					if len(names) == 0 && !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					if !ok {
						malformed = append(malformed, Diagnostic{
							Analyzer: "directive",
							Pos:      pos,
							Message:  "//urllangid:ignore needs analyzer name(s) and a reason: //urllangid:ignore <analyzer>[,<analyzer>...] <why>",
						})
						continue
					}
					// The directive covers its own line (trailing form)
					// and the next line (standalone form above the code).
					for _, name := range names {
						ignored[key{pos.Filename, pos.Line, name}] = true
						ignored[key{pos.Filename, pos.Line + 1, name}] = true
					}
				}
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !ignored[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			kept = append(kept, d)
		}
	}
	return append(kept, malformed...)
}

// funcKey builds the module-wide identity of a function or method:
// "pkgpath.Name" for package functions, "pkgpath.Recv.Name" for
// methods (pointerness ignored — the annotation covers both).
func funcKey(pkgPath, recv, name string) string {
	if recv != "" {
		return pkgPath + "." + recv + "." + name
	}
	return pkgPath + "." + name
}

// objKey is funcKey derived from a resolved function object, or "" for
// objects no annotation can name (builtins, interface methods).
func objKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "" // unnamed receiver: not annotatable
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			// Dynamic dispatch: the concrete implementations carry the
			// annotation and are checked at their definitions.
			return ""
		}
		recv = named.Obj().Name()
	}
	return funcKey(fn.Pkg().Path(), recv, fn.Name())
}

// recvTypeName extracts the receiver type name from a FuncDecl's
// receiver field, syntactically ("(s *Snapshot)" -> "Snapshot").
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver Table[T]
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// hasDirective reports whether the comment group contains the given
// //urllangid: directive on a line of its own.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}
