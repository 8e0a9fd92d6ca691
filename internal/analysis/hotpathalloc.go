package analysis

import (
	"go/ast"
	"go/types"
)

// HotpathAlloc checks the zero-allocation serving contract. Functions
// whose doc comment carries //urllangid:hotpath — and every
// same-package function they statically reach — are scanned for
// allocation-inducing constructs:
//
//   - calls into fmt, and into the known-allocating corners of
//     strings, strconv, bytes and sort (interface boxing, lowered
//     copies);
//   - make, new, slice/map composite literals, and &-escaping
//     composite literals (struct literals by value are stack state and
//     pass);
//   - map writes (bucket growth);
//   - string concatenation and string<->[]byte/[]rune conversions
//     (constant-folded expressions pass);
//   - function literals that escape: passed to a callee outside the
//     annotated hot path, stored, or returned (a closure handed to an
//     annotated module function is the streaming-visitor idiom and
//     passes);
//   - interface boxing of the fixed-size Result value;
//   - method values (x.M used as a value binds the receiver in a
//     heap-allocated closure; call the method or pre-bind the func
//     once at construction);
//   - go statements.
//
// Calls that cross a package boundary inside the module must target
// another //urllangid:hotpath function: the annotation is the contract
// edge, so a hot path can only lean on code that is itself under this
// analyzer. Standard-library calls outside the deny list and dynamic
// calls (interface methods, func values) are trusted — the concrete
// implementations are annotated and checked at their definitions.
//
// Deliberate allocations — cold error branches, modes documented as
// off the 0-alloc contract — carry //urllangid:ignore hotpathalloc
// with a reason.
var HotpathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "flag allocation-inducing constructs in //urllangid:hotpath functions and everything they statically reach in-package",
	Run:  runHotpathAlloc,
}

// stdlibAllocators maps "pkg.Func" of standard-library calls that
// allocate on every (or the typical) invocation. fmt is handled as a
// whole package.
var stdlibAllocators = map[string]string{
	"errors.New":         "allocates its error value",
	"strings.ToLower":    "allocates a lowered copy when the input is not already lower-case",
	"strings.ToUpper":    "allocates an upper-cased copy",
	"strings.Repeat":     "allocates the repeated string",
	"strings.Join":       "allocates the joined string",
	"strings.Split":      "allocates the substring slice",
	"strings.SplitN":     "allocates the substring slice",
	"strings.Fields":     "allocates the field slice",
	"strings.Replace":    "allocates the rewritten string",
	"strings.ReplaceAll": "allocates the rewritten string",
	"strings.Map":        "allocates the mapped string",
	"strings.Clone":      "allocates the copy",
	"strconv.Itoa":       "allocates the formatted string",
	"strconv.FormatInt":  "allocates the formatted string",
	"strconv.FormatUint": "allocates the formatted string",
	"strconv.Quote":      "allocates the quoted string",
	"bytes.ToLower":      "allocates a lowered copy",
	"bytes.ToUpper":      "allocates an upper-cased copy",
	"bytes.Join":         "allocates the joined slice",
	"bytes.Split":        "allocates the subslice slice",
	"bytes.Repeat":       "allocates the repeated slice",
	"bytes.Clone":        "allocates the copy",
	"sort.Slice":         "boxes the slice into an interface and heap-allocates the comparator",
	"sort.SliceStable":   "boxes the slice into an interface and heap-allocates the comparator",
	"sort.Sort":          "takes its argument through an interface",
	"sort.Stable":        "takes its argument through an interface",
}

func runHotpathAlloc(pass *Pass) error {
	// Index this package's function declarations by their defining
	// object, and find the annotated roots.
	decls := make(map[types.Object]*ast.FuncDecl)
	var roots []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
			if hasDirective(fd.Doc, "//urllangid:hotpath") {
				roots = append(roots, fd)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Transitive same-package closure from the roots: a hot path's
	// unexported helpers are checked without needing their own
	// annotations. Cross-package edges are enforced (not followed) at
	// the call sites below.
	checked := make(map[*ast.FuncDecl]bool)
	var visit func(fd *ast.FuncDecl)
	visit = func(fd *ast.FuncDecl) {
		if checked[fd] || fd.Body == nil {
			return
		}
		checked[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(pass.Info, call); fn != nil && fn.Pkg() == pass.Pkg {
				if callee, ok := decls[fn.Origin()]; ok {
					visit(callee)
				}
			}
			return true
		})
	}
	for _, fd := range roots {
		visit(fd)
	}

	c := &hotpathChecker{pass: pass}
	for fd := range checked {
		if fd.Body != nil {
			c.check(fd)
		}
	}
	return nil
}

// calleeFunc resolves the static *types.Func a call targets, or nil
// for builtins, conversions, func-value calls and generic instantiation
// wrappers it cannot name.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr:
		return calleeFunc(info, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return calleeFunc(info, &ast.CallExpr{Fun: fun.X})
	}
	return nil
}

type hotpathChecker struct {
	pass *Pass
	// exempt holds conversion expressions proven allocation-free by
	// their context, e.g. string(b) as a direct operand of ==.
	exempt map[ast.Expr]bool
	// called holds the Fun expression of every call, marked pre-order
	// so a selector visited as a callee is not mistaken for a method
	// value.
	called map[ast.Expr]bool
}

func (c *hotpathChecker) check(fd *ast.FuncDecl) {
	pass := c.pass
	info := pass.Info
	c.exempt = make(map[ast.Expr]bool)
	c.called = make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "hot path %s spawns a goroutine (stack allocation per launch)", fd.Name.Name)

		case *ast.CallExpr:
			c.called[ast.Unparen(x.Fun)] = true
			c.checkCall(fd, x)

		case *ast.SelectorExpr:
			// A method read as a value (not called) binds its receiver
			// in a heap-allocated closure.
			if !c.called[x] {
				if sel, ok := info.Selections[x]; ok && sel.Kind() == types.MethodVal {
					pass.Reportf(x.Pos(), "hot path %s creates the method value %s.%s (allocates a receiver-bound closure); call it directly or bind it once at construction",
						fd.Name.Name, types.ExprString(x.X), x.Sel.Name)
				}
			}

		case *ast.CompositeLit:
			c.checkComposite(fd, x)

		case *ast.UnaryExpr:
			if x.Op.String() == "&" {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					pass.Reportf(x.Pos(), "hot path %s heap-allocates a composite literal via &; use pooled scratch", fd.Name.Name)
				}
			}

		case *ast.BinaryExpr:
			switch x.Op.String() {
			case "+":
				if isStringType(info.Types[x].Type) && !isConst(info, x) {
					pass.Reportf(x.Pos(), "hot path %s concatenates strings; build into caller scratch instead", fd.Name.Name)
				}
			case "==", "!=":
				// string(b) == s compiles to an allocation-free compare
				// (gc elides the copy for equality only); pre-order
				// traversal marks the operands before the conversion call
				// is visited.
				if isStringType(info.Types[x.X].Type) || isStringType(info.Types[x.Y].Type) {
					c.exempt[ast.Unparen(x.X)] = true
					c.exempt[ast.Unparen(x.Y)] = true
				}
			}

		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t := info.Types[idx.X].Type; t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							pass.Reportf(lhs.Pos(), "hot path %s writes to a map (bucket growth allocates)", fd.Name.Name)
						}
					}
				}
			}
			c.checkIfaceAssign(fd, x)

		case *ast.FuncLit:
			// Handled where the literal appears (call args, stores);
			// still descend into its body — it runs on the hot path.
		}
		return true
	})
}

// checkCall handles builtin allocators, conversions, stdlib deny-list
// calls, the cross-package annotation contract, closure escape through
// arguments, and interface boxing of Result arguments.
func (c *hotpathChecker) checkCall(fd *ast.FuncDecl, call *ast.CallExpr) {
	pass := c.pass
	info := pass.Info

	// Conversions: string([]byte), []byte(string), string([]rune), ...
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && !isConst(info, call.Args[0]) && !c.exempt[call] {
			to, from := tv.Type, info.Types[call.Args[0]].Type
			if from != nil && convAllocates(to, from) {
				pass.Reportf(call.Pos(), "hot path %s converts %s to %s (copies the bytes)", fd.Name.Name, from, to)
			}
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "hot path %s calls make; allocate through pooled scratch instead", fd.Name.Name)
			case "new":
				pass.Reportf(call.Pos(), "hot path %s calls new; allocate through pooled scratch instead", fd.Name.Name)
			}
			return
		}
	}

	fn := calleeFunc(info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		path := fn.Pkg().Path()
		switch {
		case path == "fmt":
			pass.Reportf(call.Pos(), "hot path %s calls fmt.%s (formats through interfaces, always allocates)", fd.Name.Name, fn.Name())
		case pass.Module.InModule(path):
			if key := objKey(fn); key != "" && !pass.Module.Hotpath[key] {
				pass.Reportf(call.Pos(), "hot path %s calls %s.%s, which is not marked //urllangid:hotpath", fd.Name.Name, path, fn.Name())
			}
		default:
			if reason, ok := stdlibAllocators[path+"."+fn.Name()]; ok {
				pass.Reportf(call.Pos(), "hot path %s calls %s.%s, which %s", fd.Name.Name, path, fn.Name(), reason)
			}
		}
	}

	// Closure arguments: a func literal handed to an annotated module
	// function is the streaming-visitor idiom (the callee is checked
	// not to retain it); handed anywhere else it must be assumed to
	// escape to the heap.
	for _, arg := range call.Args {
		if _, ok := ast.Unparen(arg).(*ast.FuncLit); !ok {
			continue
		}
		calleeOK := false
		if fn != nil && fn.Pkg() != nil {
			if fn.Pkg() == pass.Pkg {
				calleeOK = true // same package: the callee body is in the checked closure
			} else if pass.Module.InModule(fn.Pkg().Path()) && pass.Module.Hotpath[objKey(fn)] {
				calleeOK = true
			}
		}
		if calleeFuncValue(info, call) {
			calleeOK = true // invoking a local func value (visitor callback chain)
		}
		if !calleeOK {
			pass.Reportf(arg.Pos(), "hot path %s passes a closure outside the annotated hot path (heap-allocates the closure)", fd.Name.Name)
		}
	}

	// Interface boxing of Result values through call arguments.
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			c.checkBoxedArgs(fd, call, sig)
		}
	}
}

// calleeFuncValue reports whether the call invokes a func-typed value
// (parameter, local) rather than a declared function.
func calleeFuncValue(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isVar := info.Uses[id].(*types.Var); isVar {
			return true
		}
	}
	return false
}

// checkComposite flags slice and map composite literals; struct
// literals by value are stack state and pass.
func (c *hotpathChecker) checkComposite(fd *ast.FuncDecl, lit *ast.CompositeLit) {
	t := c.pass.Info.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.pass.Reportf(lit.Pos(), "hot path %s allocates a slice literal; use pooled scratch", fd.Name.Name)
	case *types.Map:
		c.pass.Reportf(lit.Pos(), "hot path %s allocates a map literal; use pooled scratch", fd.Name.Name)
	}
}

// checkIfaceAssign flags assignments that box a Result value into an
// interface-typed destination.
func (c *hotpathChecker) checkIfaceAssign(fd *ast.FuncDecl, as *ast.AssignStmt) {
	info := c.pass.Info
	n := len(as.Rhs)
	if n != len(as.Lhs) {
		return // tuple assignment: no conversion of interest
	}
	for i := 0; i < n; i++ {
		lt := info.Types[as.Lhs[i]].Type
		rt := info.Types[as.Rhs[i]].Type
		if lt == nil || rt == nil {
			continue
		}
		if types.IsInterface(lt) && isResultType(c.pass, rt) {
			c.pass.Reportf(as.Rhs[i].Pos(), "hot path %s boxes a %s value into an interface (heap-allocates the copy)", fd.Name.Name, rt)
		}
	}
}

// checkBoxedArgs flags Result values passed to interface parameters.
func (c *hotpathChecker) checkBoxedArgs(fd *ast.FuncDecl, call *ast.CallExpr, sig *types.Signature) {
	info := c.pass.Info
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if params.Len() == 0 {
				continue
			}
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if at := info.Types[arg].Type; at != nil && isResultType(c.pass, at) {
			c.pass.Reportf(arg.Pos(), "hot path %s passes a %s value through an interface parameter (heap-allocates the copy)", fd.Name.Name, at)
		}
	}
}

// isResultType reports whether t is (or points to) the module's
// fixed-size Result struct — the value the serving layers must never
// box.
func isResultType(pass *Pass, t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if named.Obj().Name() != "Result" || named.Obj().Pkg() == nil {
		return false
	}
	if !pass.Module.InModule(named.Obj().Pkg().Path()) {
		return false
	}
	_, isStruct := named.Underlying().(*types.Struct)
	return isStruct
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// convAllocates reports whether converting from -> to copies backing
// bytes: string <-> []byte/[]rune in either direction.
func convAllocates(to, from types.Type) bool {
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
