package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one type-checked target package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module holds the loader's module-wide state: one FileSet spanning
// every parsed file, and the facts gathered by pre-scanning every
// in-module package in the targets' dependency closure.
type Module struct {
	// Path is the module path ("urllangid"); a package belongs to the
	// module when its import path is Path or starts with Path+"/".
	Path string
	Fset *token.FileSet
	// Hotpath is the set of funcKey()s whose declarations carry the
	// //urllangid:hotpath directive, across the whole module. It is the
	// cross-package edge of the hotpathalloc contract: a hot path may
	// only call module functions present in this set.
	Hotpath map[string]bool
	// lockEdges is lockorder's module-wide acquisition-order graph,
	// accumulated package by package during Run and resolved into cycle
	// diagnostics by the analyzer's Done hook.
	lockEdges map[lockEdge]token.Pos
}

// InModule reports whether an import path belongs to the module.
func (m *Module) InModule(pkgPath string) bool {
	return pkgPath == m.Path || strings.HasPrefix(pkgPath, m.Path+"/")
}

// listPackage is the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	GoFiles    []string
	Module     *struct{ Path string }
}

// goList runs `go list -json` with the given arguments in dir and
// decodes the concatenated package objects. CGO is disabled so the
// reported file sets are pure Go and type-checkable from source.
func goList(dir string, args ...string) ([]listPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// A HotFunc is one declaration whose doc comment carries the
// //urllangid:hotpath directive.
type HotFunc struct {
	// Key is the function's module-wide identity: "pkgpath.Recv.Name"
	// for methods (pointerness and type parameters stripped),
	// "pkgpath.Name" otherwise.
	Key string
	// Pkg is the import path of the declaring package.
	Pkg string
	// File is the declaring file's path; Start and End are the
	// declaration's first and last lines.
	File       string
	Start, End int
}

// ScanHotpath finds every //urllangid:hotpath declaration in the
// non-standard packages of the dependency closure of patterns (as `go
// list` understands them, relative to dir; "" means the current
// directory). The scan is parse-only — no type checking — so it stays
// cheap, and it reads only GoFiles: a test file cannot widen the
// serving contract. Load uses it for the hotpathalloc contract edge,
// and the escape gate (cmd/urllangid-escape) for the functions whose
// compiler diagnostics it pins.
func ScanHotpath(dir string, patterns ...string) ([]HotFunc, error) {
	pkgs, err := goList(dir, append([]string{"-deps", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var hot []HotFunc
	fset := token.NewFileSet()
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("scanning %s: %w", path, err)
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasDirective(fd.Doc, "//urllangid:hotpath") {
					continue
				}
				hot = append(hot, HotFunc{
					Key:   funcKey(p.ImportPath, recvTypeName(fd), fd.Name.Name),
					Pkg:   p.ImportPath,
					File:  path,
					Start: fset.Position(fd.Pos()).Line,
					End:   fset.Position(fd.End()).Line,
				})
			}
		}
	}
	return hot, nil
}

// Load resolves patterns (as `go list` understands them, relative to
// dir; "" means the current directory), type-checks each matched
// package from source, and records the module's //urllangid:hotpath
// annotations through ScanHotpath. Only go list's GoFiles reach the
// analyzers: build-tag-excluded sources and _test.go files never do
// (test files assert the contracts; the production files carry them).
// Explicit testdata directories are loadable — wildcard patterns skip
// them, which is how the analyzers' golden packages stay out of the
// ordinary build while remaining reachable by the analysistest
// harness.
func Load(dir string, patterns ...string) (*Module, []*Package, error) {
	targets, err := goList(dir, append([]string{"--"}, patterns...)...)
	if err != nil {
		return nil, nil, err
	}
	if len(targets) == 0 {
		return nil, nil, fmt.Errorf("no packages match %v", patterns)
	}
	hot, err := ScanHotpath(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}

	mod := &Module{Fset: token.NewFileSet(), Hotpath: make(map[string]bool, len(hot))}
	for _, p := range targets {
		if p.Module != nil {
			mod.Path = p.Module.Path
			break
		}
	}
	for _, h := range hot {
		mod.Hotpath[h.Key] = true
	}

	// Type-check the targets. The source importer shells out to the go
	// tool for path resolution, so the process must run from inside the
	// module for in-module imports to resolve; Load chdirs around the
	// check when dir is elsewhere.
	if dir != "" {
		cwd, err := os.Getwd()
		if err != nil {
			return nil, nil, err
		}
		if err := os.Chdir(dir); err != nil {
			return nil, nil, err
		}
		defer os.Chdir(cwd)
	}
	imp := importer.ForCompiler(mod.Fset, "source", nil)
	var out []*Package
	for _, p := range targets {
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(mod.Fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, fmt.Errorf("parsing %s: %w", filepath.Join(p.Dir, name), err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, mod.Fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
		}
		out = append(out, &Package{
			Path:  p.ImportPath,
			Dir:   p.Dir,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return mod, out, nil
}
