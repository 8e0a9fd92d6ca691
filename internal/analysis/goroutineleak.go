package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineLeak checks that goroutines launched by lifecycle-owning
// types are joinable. A type that exposes Close or Stop promises its
// background work ends when the owner is torn down; a goroutine it
// launches that loops forever with no cancellation arm outlives every
// Close call — a worker pool, say, that keeps serving a model version
// the registry already dropped.
//
// A `go` statement is owned when it appears in a method of a
// Close/Stop-carrying type, or when it launches such a method
// directly (`go e.worker()` from a constructor). For each owned
// launch the spawned body — the func literal, or the same-package
// declaration it resolves to — must satisfy:
//
//   - Every infinite loop (`for {`) in it contains a cancellation
//     arm: a select with a receive case whose body reaches return or
//     break, or a plain break. Loops with a condition, and ranges
//     (including ranging over a channel, which ends when the channel
//     closes), count as terminating.
//   - A send on a provably unbuffered channel — one whose visible
//     make(chan T) has no capacity — must be a comm clause of a
//     select with more than one arm, so teardown can win the race.
//     A bare unbuffered send blocks forever once the only receiver
//     has returned; the HTTP stream reader's select-with-done shape
//     is the allowed form.
//
// Both rules are syntactic over the spawned body (nested func
// literals included — they run within the goroutine). Goroutines in
// plain functions of types with no lifecycle to violate are out of
// scope: package main's signal pumps die with the process.
var GoroutineLeak = &Analyzer{
	Name: "goroutineleak",
	Doc:  "goroutines launched by a Close/Stop owner must be joinable: cancellable loops, select-guarded unbuffered sends",
	Run:  runGoroutineLeak,
}

func runGoroutineLeak(pass *Pass) error {
	decls := methodDecls(pass)
	unbuf := unbufferedChans(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ownerMethod := fd.Recv != nil && recvHasCloseOrStop(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				body, owned := spawnedBody(pass, decls, gs, ownerMethod)
				if body == nil || !owned {
					return true
				}
				checkSpawned(pass, unbuf, gs, body)
				return true
			})
		}
	}
	return nil
}

// methodDecls indexes the package's function declarations by their
// type-checker objects, so `go e.worker()` resolves to worker's body.
func methodDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				m[fn] = fd
			}
		}
	}
	return m
}

func recvHasCloseOrStop(pass *Pass, fd *ast.FuncDecl) bool {
	if len(fd.Recv.List) == 0 {
		return false
	}
	t := pass.Info.Types[fd.Recv.List[0].Type].Type
	return typeHasCloseOrStop(t)
}

func typeHasCloseOrStop(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Close", "Stop":
			return true
		}
	}
	return false
}

// spawnedBody resolves the function a go statement runs, when its body
// is visible in this package, and whether the launch is owned by a
// Close/Stop lifecycle.
func spawnedBody(pass *Pass, decls map[*types.Func]*ast.FuncDecl, gs *ast.GoStmt, ownerMethod bool) (*ast.BlockStmt, bool) {
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body, ownerMethod
	default:
		fn := calleeFunc(pass.Info, gs.Call)
		if fn == nil {
			return nil, false
		}
		owned := ownerMethod
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			owned = owned || typeHasCloseOrStop(sig.Recv().Type())
		}
		fd := decls[fn]
		if fd == nil || fd.Body == nil {
			return nil, false
		}
		return fd.Body, owned
	}
}

// checkSpawned applies both joinability rules to one spawned body,
// reporting at the launch site (the loop rule) and at the offending
// send (the unbuffered-send rule).
func checkSpawned(pass *Pass, unbuf map[types.Object]bool, gs *ast.GoStmt, body *ast.BlockStmt) {
	// Index the sends that are comm clauses of a multi-arm select:
	// those are cancellable.
	guarded := make(map[*ast.SendStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cc := range sel.Body.List {
			if send, ok := cc.(*ast.CommClause).Comm.(*ast.SendStmt); ok {
				guarded[send] = len(sel.Body.List) > 1
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			if x.Cond == nil && !loopCancellable(x.Body) {
				pass.Reportf(gs.Pos(), "goroutine launched by a Close/Stop owner loops forever with no cancellation arm: add a select case receiving from a done/quit channel that returns or breaks")
				return false
			}
		case *ast.SendStmt:
			if isGuarded, ok := guarded[x]; ok {
				if !isGuarded {
					// Single-arm select: the send still blocks forever.
					if provablyUnbuffered(pass, unbuf, x.Chan) {
						pass.Reportf(x.Pos(), "unbuffered channel send in a goroutine launched by a Close/Stop owner: the select needs a cancellation arm")
					}
				}
				return true
			}
			if provablyUnbuffered(pass, unbuf, x.Chan) {
				pass.Reportf(x.Pos(), "unbuffered channel send in a goroutine launched by a Close/Stop owner must sit in a select with a cancellation arm")
			}
		}
		return true
	})
}

// loopCancellable reports whether an infinite loop body can exit: a
// break at any depth, or a select receive case that returns or
// breaks.
func loopCancellable(body *ast.BlockStmt) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if x.Tok == token.BREAK {
				ok = true
			}
		case *ast.SelectStmt:
			for _, cc := range x.Body.List {
				c := cc.(*ast.CommClause)
				if c.Comm == nil || !isReceiveComm(c.Comm) {
					continue
				}
				for _, s := range c.Body {
					if exits(s) {
						ok = true
					}
				}
			}
		}
		return !ok
	})
	return ok
}

func isReceiveComm(s ast.Stmt) bool {
	switch x := s.(type) {
	case *ast.ExprStmt:
		u, ok := ast.Unparen(x.X).(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	case *ast.AssignStmt:
		if len(x.Rhs) != 1 {
			return false
		}
		u, ok := ast.Unparen(x.Rhs[0]).(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	}
	return false
}

// exits reports whether a statement (or one it directly contains)
// leaves the loop: return or break.
func exits(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if x.Tok == token.BREAK {
				found = true
			}
		}
		return !found
	})
	return found
}

// unbufferedChans scans the package once for `ch := make(chan T)`
// shapes and records which channel objects are provably unbuffered.
func unbufferedChans(pass *Pass) map[types.Object]bool {
	m := make(map[types.Object]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fun.Name != "make" || len(call.Args) == 0 {
			return
		}
		if t := pass.Info.Types[call.Args[0]].Type; t == nil {
			return
		} else if _, isChan := t.Underlying().(*types.Chan); !isChan {
			return
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj != nil {
			m[obj] = len(call.Args) == 1
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i := range x.Lhs {
						record(x.Lhs[i], x.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(x.Names) == len(x.Values) {
					for i := range x.Names {
						record(x.Names[i], x.Values[i])
					}
				}
			}
			return true
		})
	}
	return m
}

// provablyUnbuffered reports whether the channel expression resolves
// to an object whose only visible make has no capacity argument.
func provablyUnbuffered(pass *Pass, unbuf map[types.Object]bool, ch ast.Expr) bool {
	id, ok := ast.Unparen(ch).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	return obj != nil && unbuf[obj]
}
