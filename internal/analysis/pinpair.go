package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"urllangid/internal/analysis/cfg"
)

// PinPair checks the registry's lease contract: every Acquire must be
// paired with a Release on all execution paths, or the lease must be
// handed to someone who will (returned, stored, or passed along — the
// engine-drain contract transfers ownership explicitly, never drops
// it).
//
// Since PR 8 the check is path-sensitive: the function body is lowered
// to a control-flow graph (internal/analysis/cfg) and every path from
// the Acquire to a return is walked. A release in one branch no longer
// excuses an early return in another — the v1 analyzer accepted any
// function that mentioned Release *somewhere*, which is exactly the
// shape of the bug that leaks a pinned engine on the error path and
// keeps a retired model's file mapped forever.
//
// Per-path rules:
//
//   - A path is discharged by a .Release use (call, defer, or the
//     method value itself — the HTTP layer hands l.Release to the
//     caller as the per-request release func), by returning the lease,
//     by storing it (struct field, slice, map, variable), or by
//     passing it to a call.
//   - The error path of the binding `l, err := x.Acquire(name)` is
//     exempt where it is guarded: on the true edge of `err != nil`
//     (or the false edge of `err == nil`) the lease is the invalid
//     zero value and carries no obligation.
//   - A panicking path ends without obligation (the CFG does not route
//     panics to the exit block).
//   - Using the lease's *contents* — l.Engine() — is deliberately not
//     a hand-off: the engine value does not carry the release
//     obligation with it.
//
// Diagnostics: a lease no path releases reports once at the binding
// ("never released"); a lease some paths release and some leak reports
// at each leaking return, naming the path.
var PinPair = &Analyzer{
	Name: "pinpair",
	Doc:  "every registry Acquire needs a Release on every execution path (defer, explicit call, or explicit ownership transfer)",
	Run:  runPinPair,
}

func runPinPair(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			// Closures acquire leases too (stream handlers); each FuncLit
			// body is its own function with its own graph.
			checkLeasesIn(pass, name, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkLeasesIn(pass, name+" (func literal)", fl.Body)
				}
				return true
			})
		}
	}
	return nil
}

// acquireCall reports whether call is a lease-producing Acquire: a
// module function named Acquire whose first result type carries a
// Release method.
func acquireCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Name() != "Acquire" || fn.Pkg() == nil {
		return false
	}
	if !pass.Module.InModule(fn.Pkg().Path()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	return hasReleaseMethod(sig.Results().At(0).Type())
}

func hasReleaseMethod(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "Release" {
			return true
		}
	}
	// Pointer receivers extend the method set of the pointer type.
	ms = types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "Release" {
			return true
		}
	}
	return false
}

// checkLeasesIn finds the lease bindings in one function body and
// walks every execution path from each.
func checkLeasesIn(pass *Pass, funcName string, body *ast.BlockStmt) {
	info := pass.Info

	// Gather bindings first; building the graph is only worth it when
	// a lease exists.
	type binding struct {
		stmt    *ast.AssignStmt
		lease   types.Object
		errObj  types.Object
		callPos token.Pos
	}
	var bindings []binding
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			return false // separate graph, checked by the caller
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !acquireCall(pass, call) {
			return true
		}
		leaseIdent, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if leaseIdent.Name == "_" {
			pass.Reportf(as.Pos(), "lease from %s is discarded; the pinned model version can never be released", calleeFunc(info, call).Name())
			return true
		}
		obj := info.Defs[leaseIdent]
		if obj == nil {
			obj = info.Uses[leaseIdent] // plain = assignment to an existing var
		}
		if obj == nil {
			return true
		}
		b := binding{stmt: as, lease: obj, callPos: call.Pos()}
		if len(as.Lhs) > 1 {
			if errIdent, ok := ast.Unparen(as.Lhs[1]).(*ast.Ident); ok && errIdent.Name != "_" {
				if eo := info.Defs[errIdent]; eo != nil {
					b.errObj = eo
				} else {
					b.errObj = info.Uses[errIdent]
				}
			}
		}
		bindings = append(bindings, b)
		return true
	})
	if len(bindings) == 0 {
		return
	}

	g := cfg.New(body)
	// Locate each statement node's block and index once.
	type at struct {
		blk *cfg.Block
		idx int
	}
	where := make(map[ast.Node]at)
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			where[n] = at{blk, i}
		}
	}

	for _, b := range bindings {
		pos, ok := where[ast.Node(b.stmt)]
		if !ok {
			continue // unreachable code
		}
		w := &leaseWalk{
			pass:    pass,
			g:       g,
			lease:   b.lease,
			errObj:  b.errObj,
			binding: b.stmt,
			visited: make(map[*cfg.Block]bool),
		}
		w.walk(pos.blk, pos.idx+1)
		leaseName := b.lease.Name()
		switch {
		case len(w.leaks) == 0:
			// Every path discharged the obligation.
		case w.kills == 0:
			// No path releases: one diagnostic at the binding reads
			// better than one per return.
			pass.Reportf(b.stmt.Pos(), "lease %s is never released in %s: call %s.Release (usually deferred) or hand the lease off explicitly", leaseName, funcName, leaseName)
		default:
			for _, leak := range w.leaks {
				if leak == nil {
					pass.Reportf(b.stmt.Pos(), "lease %s is not released on a path that falls off the end of %s", leaseName, funcName)
					continue
				}
				pass.Reportf(leak.Pos(), "lease %s may not be released on this return path in %s; release it before returning or hand it off", leaseName, funcName)
			}
		}
	}
}

// leaseWalk is one binding's depth-first path exploration: from the
// statement after the Acquire, follow every CFG edge until the
// obligation is discharged (kill) or a function exit is reached with
// the lease still live (leak).
type leaseWalk struct {
	pass    *Pass
	g       *cfg.Graph
	lease   types.Object
	errObj  types.Object
	binding *ast.AssignStmt
	visited map[*cfg.Block]bool
	kills   int
	leaks   []ast.Node // the leaking return statements; nil = fell off the end
}

func (w *leaseWalk) walk(blk *cfg.Block, start int) {
	if start == 0 {
		if w.visited[blk] {
			return
		}
		w.visited[blk] = true
	}
	if blk == w.g.Exit {
		w.leaks = append(w.leaks, nil)
		return
	}
	for i := start; i < len(blk.Nodes); i++ {
		n := blk.Nodes[i]
		if ret, ok := n.(*ast.ReturnStmt); ok {
			if w.stmtHandles(n) {
				w.kills++
			} else {
				w.leaks = append(w.leaks, ret)
			}
			return
		}
		if w.stmtHandles(n) {
			w.kills++
			return
		}
	}
	// Block exhausted: follow edges, honouring the err-guard when the
	// block ends in a condition on the binding's error result.
	drop := -1 // successor index the obligation does not survive into
	if w.errObj != nil && blk.Cond != nil && len(blk.Succs) == 2 {
		switch guardKind(w.pass.Info, blk.Cond, w.errObj) {
		case guardErrNotNil:
			drop = 0 // true edge: err != nil, the lease is the zero value
		case guardErrIsNil:
			drop = 1 // false edge of err == nil
		}
	}
	for i, s := range blk.Succs {
		if i == drop {
			continue
		}
		w.walk(s, 0)
	}
}

// stmtHandles reports whether one statement discharges the lease:
// a .Release selection (call, defer, or method value), the lease
// returned, stored, or passed to a call.
func (w *leaseWalk) stmtHandles(n ast.Node) bool {
	info := w.pass.Info
	handled := false
	ast.Inspect(n, func(x ast.Node) bool {
		if handled {
			return false
		}
		switch x := x.(type) {
		case *ast.SelectorExpr:
			if isLeaseExpr(info, x.X, w.lease) && x.Sel.Name == "Release" {
				handled = true
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if isLeaseExpr(info, r, w.lease) {
					handled = true
				}
			}
		case *ast.CallExpr:
			for _, a := range x.Args {
				if isLeaseExpr(info, a, w.lease) {
					handled = true
				}
			}
		case *ast.AssignStmt:
			if x == w.binding {
				return true
			}
			// Storing the lease (into a field, slice, map or another
			// variable) transfers ownership to the holder.
			for i, r := range x.Rhs {
				if isLeaseExpr(info, r, w.lease) && (len(x.Lhs) != len(x.Rhs) || !isBlank(x.Lhs[i])) {
					handled = true
				}
			}
		case *ast.KeyValueExpr:
			if isLeaseExpr(info, x.Value, w.lease) {
				handled = true
			}
		}
		return !handled
	})
	return handled
}

// guard classification for the binding's error result.
type guard int

const (
	guardNone guard = iota
	guardErrNotNil
	guardErrIsNil
)

// guardKind classifies a branch condition as a nil check on errObj.
func guardKind(info *types.Info, cond ast.Expr, errObj types.Object) guard {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return guardNone
	}
	var other ast.Expr
	switch {
	case isObjExpr(info, be.X, errObj):
		other = be.Y
	case isObjExpr(info, be.Y, errObj):
		other = be.X
	default:
		return guardNone
	}
	if id, ok := ast.Unparen(other).(*ast.Ident); !ok || id.Name != "nil" {
		return guardNone
	}
	switch be.Op {
	case token.NEQ:
		return guardErrNotNil
	case token.EQL:
		return guardErrIsNil
	}
	return guardNone
}

func isObjExpr(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && (info.Uses[id] == obj || info.Defs[id] == obj)
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// isLeaseExpr reports whether e denotes the lease value itself: the
// identifier, or its address.
func isLeaseExpr(info *types.Info, e ast.Expr, obj types.Object) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	return ok && (info.Uses[id] == obj || info.Defs[id] == obj)
}
