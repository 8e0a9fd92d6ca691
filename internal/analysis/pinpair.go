package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PinPair checks the registry's lease contract in the one shape that
// releases a lease on every path by construction:
//
//	l, err := reg.Acquire(name)
//	if err != nil {
//		return ...
//	}
//	defer l.Release()
//
// Every call to a module function named Acquire whose first result has
// a Release method must be bound this way, with the error check and
// the deferred Release as the two statements right after the binding.
// Anything else is reported at the call: a release on some paths only,
// a release that is not deferred, an unchecked error, a discarded,
// stored, returned or passed-on lease. A function that hands the
// lease on on purpose waives the finding with
// //urllangid:ignore pinpair <reason>, as registry.Resolve and the
// registry's cascade build (leaseTiers) do.
//
// The rule sees only Acquire. A release handed out as a func() —
// Resolve's to the HTTP handlers — is checked at run time instead, by
// the root package's TestNoPinOutlivesItsCall.
var PinPair = &Analyzer{
	Name: "pinpair",
	Doc:  "every registry Acquire is followed by its err != nil return and then defer <lease>.Release()",
	Run:  runPinPair,
}

func runPinPair(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Inspect visits a statement list before the calls inside
			// it, so a shaped binding is marked before its call is seen.
			shaped := make(map[*ast.CallExpr]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var list []ast.Stmt
				switch x := n.(type) {
				case *ast.BlockStmt:
					list = x.List
				case *ast.CaseClause:
					list = x.Body
				case *ast.CommClause:
					list = x.Body
				case *ast.CallExpr:
					if acquireCall(pass, x) && !shaped[x] {
						pass.Reportf(x.Pos(), "lease from Acquire in %s must be bound as `l, err := Acquire(...)`, then `if err != nil { return ... }`, then `defer l.Release()`", fd.Name.Name)
					}
				}
				for i := range list {
					if call := shapedAcquire(pass, list, i); call != nil {
						shaped[call] = true
					}
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

// shapedAcquire returns the Acquire call that list[i] binds when the
// two statements after it are the error's return and the lease's
// deferred Release, and nil otherwise.
func shapedAcquire(pass *Pass, list []ast.Stmt, i int) *ast.CallExpr {
	if i+2 >= len(list) {
		return nil
	}
	bind, ok := list[i].(*ast.AssignStmt)
	if !ok || len(bind.Lhs) != 2 || len(bind.Rhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(bind.Rhs[0]).(*ast.CallExpr)
	if !ok || !acquireCall(pass, call) {
		return nil
	}
	lease, err := identObj(pass.Info, bind.Lhs[0]), identObj(pass.Info, bind.Lhs[1])
	if lease == nil || err == nil {
		return nil
	}
	check, ok := list[i+1].(*ast.IfStmt)
	if !ok || check.Else != nil || !isErrNotNil(pass.Info, check.Cond, err) {
		return nil
	}
	body := check.Body.List
	if len(body) == 0 {
		return nil
	}
	if _, ok := body[len(body)-1].(*ast.ReturnStmt); !ok {
		return nil
	}
	d, ok := list[i+2].(*ast.DeferStmt)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(d.Call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" || identObj(pass.Info, sel.X) != lease {
		return nil
	}
	return call
}

// isErrNotNil reports whether cond is `err != nil` on errObj.
func isErrNotNil(info *types.Info, cond ast.Expr, errObj types.Object) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	return ok && be.Op == token.NEQ && identObj(info, be.X) == errObj && info.Types[be.Y].IsNil()
}

// identObj returns the object a non-blank identifier defines or uses,
// or nil for any other expression.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return info.ObjectOf(id)
}
