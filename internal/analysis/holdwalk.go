package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// holdWalker is the shared must-hold engine behind lockguard and
// lockorder. It walks a function body tracking which mutexes are
// definitely held at each point: classify recognizes acquire/release
// calls and names the lock they operate on, statement lists thread the
// held map forward, and control flow merges by intersection so a hold
// must survive every path to count. The walk is an approximation, not a
// proof — it is keyed on lock *names* (receiver fields for lockguard,
// Type.field labels for lockorder), so two instances of the same struct
// alias to one entry. The repo's locking is coarse enough
// that the approximation has not produced a false positive; fixtures pin
// the cases where it deliberately under-claims.
//
// Hook contract:
//   - classify(call) returns the lock's key and the operation
//     (Lock/RLock/Unlock/RUnlock), or ("", "") for ordinary calls.
//   - onAcquire fires at each Lock/RLock site with the locks held on
//     entry to the call (before the new lock is added).
//   - onAccess fires for every selector expression reached outside
//     mutex-operation receivers, with the current held set.
//   - onCall fires for ordinary (non-mutex-op) calls. Deferred calls and
//     go-launched calls are excluded: a defer runs at return when locks
//     may already be released, and a goroutine does not inherit the
//     spawner's holds. Go-launched function literals are walked with an
//     empty held set instead.
//
// held maps lock key to "definitely held here"; a false entry means
// released. Deferred Unlock/RUnlock pins the lock held to return.
type holdWalker struct {
	pkg       *Package
	classify  func(call *ast.CallExpr) (key, op string)
	onAcquire func(call *ast.CallExpr, key string, held map[string]bool)
	onAccess  func(sel *ast.SelectorExpr, held map[string]bool)
	onCall    func(call *ast.CallExpr, held map[string]bool)
}

// walk analyzes a function body starting from an empty held set.
func (w *holdWalker) walk(body *ast.BlockStmt) {
	w.block(body.List, map[string]bool{})
}

// block analyzes a statement list, mutating held in place. It reports
// whether control definitely leaves the list (return, panic, branch).
func (w *holdWalker) block(stmts []ast.Stmt, held map[string]bool) bool {
	for _, st := range stmts {
		if w.stmt(st, held) {
			return true
		}
	}
	return false
}

// stmt analyzes one statement; the return value mirrors block.
func (w *holdWalker) stmt(st ast.Stmt, held map[string]bool) bool {
	switch s := st.(type) {
	case *ast.BlockStmt:
		return w.block(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		thenHeld := copyHeld(held)
		thenTerm := w.block(s.Body.List, thenHeld)
		elseHeld := copyHeld(held)
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseHeld)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replaceHeld(held, elseHeld)
		case elseTerm:
			replaceHeld(held, thenHeld)
		default:
			intersectHeld(held, thenHeld)
			intersectHeld(held, elseHeld)
		}
		return false
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		bodyHeld := copyHeld(held)
		w.block(s.Body.List, bodyHeld)
		if s.Post != nil {
			w.stmt(s.Post, bodyHeld)
		}
		if s.Cond == nil {
			// for{}: only a break exits; treat the tail as unreachable
			// rather than merging states we cannot track through breaks.
			return true
		}
		intersectHeld(held, bodyHeld)
		return false
	case *ast.RangeStmt:
		w.expr(s.X, held)
		bodyHeld := copyHeld(held)
		w.block(s.Body.List, bodyHeld)
		intersectHeld(held, bodyHeld)
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.switchStmt(st, held)
	case *ast.DeferStmt:
		if key, op := w.callOp(s.Call); key != "" && (op == "Unlock" || op == "RUnlock") {
			return false // deferred release: held until return
		}
		// The deferred call runs at return, possibly after explicit
		// releases; walk its operands for accesses but do not report it
		// as a held-site call.
		savedCall := w.onCall
		w.onCall = nil
		w.expr(s.Call, held)
		w.onCall = savedCall
		return false
	case *ast.GoStmt:
		w.goLaunch(s.Call, held)
		return false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, held)
		}
		return true
	case *ast.BranchStmt:
		return s.Tok == token.BREAK || s.Tok == token.CONTINUE || s.Tok == token.GOTO
	case *ast.ExprStmt:
		w.expr(s.X, held)
		return isPanic(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r, held)
		}
		for _, l := range s.Lhs {
			w.expr(l, held)
		}
		return false
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.LabeledStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e, held)
				return false
			}
			return true
		})
		return false
	default:
		return false
	}
}

// switchStmt merges switch/select clauses: held after the statement only
// if held on entry and at the end of every non-terminating clause.
func (w *holdWalker) switchStmt(st ast.Stmt, held map[string]bool) bool {
	var body *ast.BlockStmt
	switch s := st.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.stmt(s.Assign, held)
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	for _, clause := range body.List {
		clauseHeld := copyHeld(held)
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.expr(e, clauseHeld)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				w.stmt(c.Comm, clauseHeld)
			}
			stmts = c.Body
		}
		if !w.block(stmts, clauseHeld) {
			intersectHeld(held, clauseHeld)
		}
	}
	return false
}

// goLaunch handles `go f(args)`: the arguments are evaluated in the
// spawning goroutine (current held applies), but the launched body runs
// concurrently and inherits nothing — a function literal is walked with
// an empty held set, and the call itself is not reported through onCall.
func (w *holdWalker) goLaunch(call *ast.CallExpr, held map[string]bool) {
	for _, a := range call.Args {
		w.expr(a, held)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.block(lit.Body.List, map[string]bool{})
	}
}

// expr walks an expression: mutex operations update held, selector
// accesses and ordinary calls are reported through the hooks, and
// function literals are analyzed with a copy of the current state (they
// either run inline or inherit the caller's discipline).
func (w *holdWalker) expr(e ast.Expr, held map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.block(n.Body.List, copyHeld(held))
			return false
		case *ast.GoStmt:
			w.goLaunch(n.Call, held)
			return false
		case *ast.CallExpr:
			if key, op := w.callOp(n); key != "" {
				switch op {
				case "Lock", "RLock":
					if w.onAcquire != nil {
						w.onAcquire(n, key, held)
					}
					held[key] = true
				case "Unlock", "RUnlock":
					held[key] = false
				}
				return false // the x.mu selector inside is not an access
			}
			if w.onCall != nil {
				w.onCall(n, held)
			}
		case *ast.SelectorExpr:
			if w.onAccess != nil {
				w.onAccess(n, held)
			}
		}
		return true
	})
}

// callOp applies classify, tolerating a nil hook.
func (w *holdWalker) callOp(call *ast.CallExpr) (string, string) {
	if w.classify == nil {
		return "", ""
	}
	return w.classify(call)
}

// isMutexOpName reports whether name is one of the four sync mutex
// operations the walkers model.
func isMutexOpName(name string) bool {
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return true
	}
	return false
}

// mutexFieldOp recognizes calls of the shape expr.<mu>.Lock() (and the
// other three operations) where expr's type dereferences to a named
// struct owning a sync.Mutex or sync.RWMutex field <mu>. It returns the
// type-qualified label "Type.mu" and the operation — the lock identity
// lockorder uses, which conflates all instances of a type (adequate for a
// tree whose lock order is declared per type).
func mutexFieldOp(pkg *Package, call *ast.CallExpr) (label, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isMutexOpName(sel.Sel.Name) {
		return "", ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	obj := pkg.Info.Uses[inner.Sel]
	if obj == nil || !isSyncMutexType(obj.Type()) {
		return "", ""
	}
	owner := namedOf(pkg.Info.Types[inner.X].Type)
	if owner == nil {
		return "", ""
	}
	return owner.Obj().Name() + "." + inner.Sel.Name, sel.Sel.Name
}

// isSyncMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isSyncMutexType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// namedOf unwraps pointers and aliases down to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// calleeOf resolves a call to its static *types.Func: a plain function,
// a method on a concrete type, or — unresolvable for our purposes —
// an interface method (those get no body summaries, so cross-package
// passes conservatively drop such chains). Built-ins, function values
// and literals return nil.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := pkg.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
