package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder checks the module's mutex discipline two ways.
//
// First, it accumulates a module-wide acquisition-order graph: every
// time a function acquires lock B while (on all paths) holding lock A,
// the edge A→B is recorded. Locks are identified by class —
// "pkgpath.Type.field" for the usual `s.mu sync.Mutex` shape — so the
// order is a property of the types, not of individual values. After
// the last package, the Done hook reports every cycle in the graph:
// two call paths that take the same pair of lock classes in opposite
// orders are a deadlock waiting for the right interleaving
// (registry.mu vs slot.mu, taken in two functions, is exactly the kind
// of inversion no check of one function can see). Acquiring a lock
// class while already holding it is reported immediately — the
// module's mutexes are not reentrant.
//
// Second, it flags blocking operations executed while a lock is held:
// bare channel sends and receives, select statements with no default
// arm, ranging over a channel, WaitGroup/Cond Wait, time.Sleep, and
// calls into net or net/http. A worker that blocks on a channel while
// holding the engine mutex stalls every classify request behind it;
// the serve layer's non-blocking recruitment (select with a default
// arm under RLock) is the allowed shape and passes. A go or defer
// statement is judged where its parts run: its function value and
// arguments are evaluated in place, a go call runs on another
// goroutine, and a deferred call runs when the function returns —
// under every lock whose deferred Unlock was registered before it,
// since deferred calls run last-in first-out.
//
// Held-ness is a must-analysis over the syntax tree: a lock counts as
// held at a point only when every path to that point holds it, so
// conditional-locking shapes do not produce false positives. Each
// function body is walked in source order. Branches meet by
// intersection, break and continue carry their state to the statement
// they leave, a loop body is walked until the state at its head
// settles, return or panic ends a path, and a goto carries its state
// to its label. A deferred Unlock does NOT release for the analysis —
// the lock really is held until the function returns, and blocking
// below a `defer mu.Unlock()` is still blocking under the lock.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "module-wide mutex acquisition order must be acyclic, and no goroutine may block while holding a lock",
	Run:  runLockOrder,
	Done: doneLockOrder,
}

// lockEdge is one module-wide acquisition-order fact: `to` was
// acquired while `from` was held.
type lockEdge struct {
	from, to string
}

func runLockOrder(pass *Pass) error {
	if pass.Module.lockEdges == nil {
		pass.Module.lockEdges = make(map[lockEdge]token.Pos)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLocks(pass, fd.Name.Name, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkLocks(pass, fd.Name.Name+" (func literal)", fl.Body)
				}
				return true
			})
		}
	}
	return nil
}

// lockKind distinguishes the sync.Mutex/RWMutex entry points.
type lockKind int

const (
	lockNone lockKind = iota
	lockAcquire
	lockRelease
)

// checkLocks walks one function body from an empty held set: quietly
// until the states its gotos carry settle (a backward goto feeds a
// label the walk has passed), then once with reporting on. A function
// literal inside the body is its own function: it runs when called,
// not where it is written.
func checkLocks(pass *Pass, funcName string, body *ast.BlockStmt) {
	w := &lockWalk{pass: pass, funcName: funcName, quiet: true, gotos: make(map[string]held)}
	for w.gotoMoved = true; w.gotoMoved; {
		w.gotoMoved = false
		w.stmt(body, held{})
	}
	w.quiet = false
	w.stmt(body, held{})
}

// held is the set of lock classes held on every path to a point in a
// function body, plus deferMark+class for each class whose Unlock every
// path has deferred. A nil held marks a point no path reaches.
type held map[string]bool

// deferMark prefixes a deferred-Unlock mark in a held set; lock class
// names contain no space.
const deferMark = "defer "

// holds reports whether any lock is held.
func (h held) holds() bool {
	for c := range h {
		if !strings.HasPrefix(c, deferMark) {
			return true
		}
	}
	return false
}

// meet joins two paths: a class stays held only if both hold it.
func meet(a, b held) held {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := held{}
	for c := range a {
		if b[c] {
			out[c] = true
		}
	}
	return out
}

// with returns a copy of h in which class is held or not.
func (h held) with(class string, on bool) held {
	out := held{}
	for c := range h {
		out[c] = true
	}
	if on {
		out[class] = true
	} else {
		delete(out, class)
	}
	return out
}

func (h held) same(o held) bool {
	if (h == nil) != (o == nil) || len(h) != len(o) {
		return false
	}
	for c := range h {
		if !o[c] {
			return false
		}
	}
	return true
}

func (h held) String() string {
	names := make([]string, 0, len(h))
	for c := range h {
		if !strings.HasPrefix(c, deferMark) {
			names = append(names, c)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// lockWalk is the walk of one function body.
type lockWalk struct {
	pass     *Pass
	funcName string
	// quiet is set while a loop body or the function is walked towards
	// its fixpoint: those passes may see more locks than the settled
	// state, so they report nothing and record no edge.
	quiet  bool
	frames []lockFrame
	label  string // label of the statement about to be walked
	fall   held   // state at the fallthrough that ended the last clause
	// gotos holds the meet of the states each label's gotos carry;
	// gotoMoved records that a pass changed one.
	gotos     map[string]held
	gotoMoved bool
}

// lockFrame is one statement a break (or, for a loop, a continue) can
// leave, with the meet of the states those jumps carry.
type lockFrame struct {
	label     string
	loop      bool
	brk, cont held
}

// stmt walks s from state h and returns the state after it.
func (w *lockWalk) stmt(s ast.Stmt, h held) held {
	if ls, ok := s.(*ast.LabeledStmt); ok {
		w.label = ls.Label.Name
		return w.stmt(ls.Stmt, meet(h, w.gotos[ls.Label.Name]))
	}
	label := w.label
	w.label = ""
	if s == nil || h == nil {
		return h
	}
	switch x := s.(type) {
	case *ast.BlockStmt:
		return w.list(x.List, h)
	case *ast.ReturnStmt:
		w.visit(x, h)
		return nil
	case *ast.ExprStmt:
		h = w.visit(x, h)
		if isPanic(x.X) {
			return nil
		}
		return h
	case *ast.BranchStmt:
		w.jump(x, h)
		return nil
	case *ast.IfStmt:
		h = w.visit(x.Cond, w.stmt(x.Init, h))
		return meet(w.stmt(x.Body, h), w.stmt(x.Else, h))
	case *ast.ForStmt:
		return w.loop(label, w.stmt(x.Init, h), x.Body, x.Cond, x.Post)
	case *ast.RangeStmt:
		return w.loop(label, h, x.Body, x, nil)
	case *ast.SwitchStmt:
		return w.cases(label, x.Body, w.visit(x.Tag, w.stmt(x.Init, h)))
	case *ast.TypeSwitchStmt:
		return w.cases(label, x.Body, w.visit(x.Assign, w.stmt(x.Init, h)))
	case *ast.SelectStmt:
		h = w.visit(x, h) // the wait point; its comm clauses block only here
		end, brk := w.enter(label, false, func() held {
			var out held
			for _, cc := range x.Body.List {
				out = meet(out, w.list(cc.(*ast.CommClause).Body, h))
			}
			return out
		})
		return meet(end, brk)
	}
	return w.visit(s, h)
}

func (w *lockWalk) list(list []ast.Stmt, h held) held {
	for _, s := range list {
		h = w.stmt(s, h)
	}
	return h
}

// loop walks a for or range loop entered with state in. head is the
// node evaluated before each iteration (the condition, or the range
// statement itself; nil for an infinite for), and post is a for loop's
// post statement. The body is walked quietly until the state at the
// head settles, then once more with reporting on.
func (w *lockWalk) loop(label string, in held, body *ast.BlockStmt, head ast.Node, post ast.Stmt) held {
	pass := func(h held) (back, out held) {
		w.visit(head, h)
		end, brk := w.enter(label, true, func() held { return w.stmt(body, h) })
		end = w.stmt(post, end)
		if head != nil {
			brk = meet(brk, h) // the condition or the range ends the loop
		}
		return end, brk
	}
	quiet := w.quiet
	w.quiet = true
	h := in
	for {
		back, _ := pass(h)
		next := meet(in, back)
		if next.same(h) {
			break
		}
		h = next
	}
	w.quiet = quiet
	_, out := pass(h)
	return out
}

// cases walks a switch body: every clause starts from the state after
// the tag, a fallthrough also carries its clause's end state into the
// next clause, and without a default the tag's state skips the switch.
func (w *lockWalk) cases(label string, body *ast.BlockStmt, h held) held {
	end, brk := w.enter(label, false, func() held {
		var out, fall held
		dflt := false
		for _, cs := range body.List {
			c := cs.(*ast.CaseClause)
			dflt = dflt || c.List == nil
			in := meet(h, fall)
			for _, e := range c.List {
				in = w.visit(e, in)
			}
			out = meet(out, w.list(c.Body, in))
			fall, w.fall = w.fall, nil
		}
		if !dflt {
			out = meet(out, h)
		}
		return out
	})
	return meet(end, brk)
}

// enter walks body as the target of break (and, for a loop, continue)
// statements. It returns the state at the end of the body met with the
// continues, and the meet of the breaks.
func (w *lockWalk) enter(label string, loop bool, body func() held) (end, brk held) {
	w.frames = append(w.frames, lockFrame{label: label, loop: loop})
	end = body()
	f := w.frames[len(w.frames)-1]
	w.frames = w.frames[:len(w.frames)-1]
	return meet(end, f.cont), f.brk
}

// jump records the state a branch statement carries to its target.
func (w *lockWalk) jump(x *ast.BranchStmt, h held) {
	switch x.Tok {
	case token.GOTO:
		old := w.gotos[x.Label.Name]
		w.gotos[x.Label.Name] = meet(old, h)
		w.gotoMoved = w.gotoMoved || !old.same(w.gotos[x.Label.Name])
		return
	case token.FALLTHROUGH:
		w.fall = h
		return
	}
	for i := len(w.frames) - 1; i >= 0; i-- {
		f := &w.frames[i]
		if x.Label != nil && x.Label.Name != f.label || x.Tok == token.CONTINUE && !f.loop {
			continue
		}
		if x.Tok == token.BREAK {
			f.brk = meet(f.brk, h)
		} else {
			f.cont = meet(f.cont, h)
		}
		return
	}
}

// visit applies one straight-line node: a lock event changes the held
// set, anything else is checked for blocking while a lock is held.
func (w *lockWalk) visit(n ast.Node, h held) held {
	if n == nil || h == nil {
		return h
	}
	switch s := n.(type) {
	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if !ok {
			break
		}
		switch class, pos, kind := lockEvent(w.pass, w.funcName, call); kind {
		case lockAcquire:
			if !w.quiet {
				w.acquire(class, pos, h)
			}
			return h.with(class, true)
		case lockRelease:
			return h.with(class, false)
		}
	case *ast.DeferStmt:
		// A deferred Unlock releases nothing here: the lock stays held
		// until the function returns, and every call deferred after
		// this one runs before it.
		if class, _, kind := lockEvent(w.pass, w.funcName, s.Call); kind == lockRelease {
			return h.with(deferMark+class, true)
		}
		if desc, blocking := blockingCall(w.pass, s.Call); blocking && !w.quiet {
			under := held{}
			for c := range h {
				if h[deferMark+c] {
					under[c] = true
				}
			}
			if len(under) > 0 {
				w.pass.Reportf(s.Call.Pos(), "%s while holding %s: deferred after that lock's deferred Unlock, it runs first", desc, under)
			}
		}
	}
	if !w.quiet && h.holds() {
		if desc, pos, blocking := blockingOp(w.pass, n); blocking {
			w.pass.Reportf(pos, "%s while holding %s", desc, h)
		}
	}
	return h
}

// acquire reports a reentrant acquisition and records an order edge
// from every other class held.
func (w *lockWalk) acquire(class string, pos token.Pos, h held) {
	if h[class] {
		w.pass.Reportf(pos, "acquiring %s while already holding it: the module's mutexes are not reentrant", class)
	}
	for c := range h {
		if e := (lockEdge{from: c, to: class}); c != class && !strings.HasPrefix(c, deferMark) {
			if _, seen := w.pass.Module.lockEdges[e]; !seen {
				w.pass.Module.lockEdges[e] = pos
			}
		}
	}
}

// isPanic reports whether e is a call to the predeclared panic.
func isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// lockEvent classifies a call as a lock acquisition or release on a
// resolvable lock class.
func lockEvent(pass *Pass, funcName string, call *ast.CallExpr) (class string, pos token.Pos, kind lockKind) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", token.NoPos, lockNone
	}
	switch fn.Name() {
	case "Lock", "RLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return "", token.NoPos, lockNone
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", token.NoPos, lockNone
	}
	class, ok = lockClass(pass, funcName, sel.X)
	if !ok {
		return "", token.NoPos, lockNone
	}
	return class, call.Pos(), kind
}

// lockClass names the lock a receiver expression denotes, at class
// granularity: "pkgpath.Type.field" for a mutex field, "pkgpath.Type"
// for an embedded mutex reached through the promoted method,
// "pkgpath.var" for a package-level mutex, and
// "pkgpath.func.var" for a function-local one (meaningful within the
// function's own edges, never shared across functions).
func lockClass(pass *Pass, funcName string, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		t := pass.Info.Types[x.X].Type
		if t == nil {
			return "", false
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name, true
		}
		return "", false
	case *ast.Ident:
		obj := pass.Info.Uses[x]
		if obj == nil || obj.Pkg() == nil {
			return "", false
		}
		t := obj.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
			// Promoted method through an embedded mutex: the class is
			// the embedding type.
			return named.Obj().Pkg().Path() + "." + named.Obj().Name(), true
		}
		if obj.Parent() == pass.Pkg.Scope() {
			return obj.Pkg().Path() + "." + obj.Name(), true
		}
		return fmt.Sprintf("%s.%s.%s", obj.Pkg().Path(), funcName, obj.Name()), true
	}
	return "", false
}

// blockingOp reports whether executing node can block the goroutine:
// bare channel operations, default-less selects, channel ranges, Wait,
// Sleep, and network calls. Select-guarded communications (a comm
// clause of some select) are judged at their SelectStmt and never
// reach here. Of a go or defer statement only the function value and
// the arguments run here; visit judges a deferred call itself.
func blockingOp(pass *Pass, node ast.Node) (string, token.Pos, bool) {
	var elsewhere *ast.CallExpr
	switch x := node.(type) {
	case *ast.GoStmt:
		elsewhere = x.Call
	case *ast.DeferStmt:
		elsewhere = x.Call
	case *ast.SelectStmt:
		for _, cc := range x.Body.List {
			if cc.(*ast.CommClause).Comm == nil {
				return "", token.NoPos, false // default arm: never blocks
			}
		}
		return "select with no default arm", x.Pos(), true
	case *ast.SendStmt:
		return "channel send", x.Pos(), true
	case *ast.RangeStmt:
		if t := pass.Info.Types[x.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "range over channel", x.Pos(), true
			}
		}
		return "", token.NoPos, false
	}
	var desc string
	var pos token.Pos
	ast.Inspect(node, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // runs when called, not here
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				desc, pos = "channel receive", x.Pos()
			}
		case *ast.CallExpr:
			if d, ok := blockingCall(pass, x); ok && x != elsewhere {
				desc, pos = d, x.Pos()
			}
		}
		return desc == ""
	})
	return desc, pos, desc != ""
}

// blockingCall reports whether call itself can block: Wait, Sleep, or
// a call into net or net/http.
func blockingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	switch path := fn.Pkg().Path(); {
	case path == "net" || path == "net/http":
		return "call into " + path, true
	case path == "sync" && fn.Name() == "Wait":
		return "sync Wait", true
	case path == "time" && fn.Name() == "Sleep":
		return "time.Sleep", true
	}
	return "", false
}

// doneLockOrder resolves the accumulated acquisition graph: any pair
// of classes reachable from each other in both directions is a
// potential deadlock. Each conflicting pair reports once, at the
// witness position of its lexicographically smaller edge.
func doneLockOrder(mod *Module, report func(pos token.Pos, format string, args ...any)) {
	if len(mod.lockEdges) == 0 {
		return
	}
	succs := make(map[string][]string)
	for e := range mod.lockEdges {
		succs[e.from] = append(succs[e.from], e.to)
	}
	for from := range succs {
		sort.Strings(succs[from])
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range succs[c] {
				if s == to {
					return true
				}
				if !seen[s] {
					seen[s] = true
					stack = append(stack, s)
				}
			}
		}
		return false
	}
	edges := make([]lockEdge, 0, len(mod.lockEdges))
	for e := range mod.lockEdges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		if e.from < e.to && reaches(e.to, e.from) {
			report(mod.lockEdges[e], "lock-order cycle: this path acquires %s before %s, but another path in the module acquires them in the reverse (possibly transitive) order", e.from, e.to)
		}
	}
}
