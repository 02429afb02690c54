package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Lockguard enforces the socket runtime's lock discipline: a struct field
// annotated "// guarded by <mu>" may only be accessed through the
// receiver in methods that hold that mutex at the access. The analysis is
// an approximate must-hold walk over each method body: recv.mu.Lock()
// acquires, recv.mu.Unlock() releases, defer recv.mu.Unlock() holds to
// return, and branch/loop/switch exits merge conservatively (held only if
// held on every non-terminating path). sync.Cond.Wait needs no modeling —
// it reacquires its locker before returning, so a linear hold survives it.
//
// Methods whose name ends in "Locked" assert that the caller holds the
// mutex (the repo's existing convention) and are skipped. Plain functions
// are out of scope: a constructor touching fields of a value that has not
// escaped yet needs no lock.
//
// Only sibling guards are machine-checked. A dotted guard — "// guarded by
// Server.mu" on an engine.Peer field, "guarded by stateShard.mu" in
// engine.State's prose — documents a lock that lives on another type and is
// held by the caller; the receiver-scoped walk cannot see a foreign
// instance's lock, so the pass skips it. What watches those fields is
// engine.TestOneServerStep and the -race -count=3 stage of verify.sh.
type Lockguard struct{}

// NewLockguard returns the pass.
func NewLockguard() *Lockguard { return &Lockguard{} }

// Name implements Pass.
func (*Lockguard) Name() string { return "lockguard" }

// Doc implements Pass.
func (*Lockguard) Doc() string {
	return `"guarded by <mu>" fields must be accessed with the mutex held`
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+(?:\.\w+)?)`)

// collectGuards parses every sibling "guarded by" annotation in the
// package. It returns field object → the mutex field guarding it, the
// named-type objects owning at least one guarded field, and diagnostics
// for guards that name something that is not a field of the struct.
func collectGuards(pkg *Package, pass string) (guardSet, map[types.Object]bool, []Diagnostic) {
	guards := guardSet{}
	structOf := map[types.Object]bool{}
	var diags []Diagnostic

	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := map[string]bool{}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, fld := range st.Fields.List {
				mu := guardAnnotation(fld)
				if mu == "" || strings.Contains(mu, ".") {
					continue // unannotated, or a dotted guard: prose, not checked
				}
				if !fieldNames[mu] {
					diags = append(diags, Diagnostic{
						Pos:  pkg.Fset.Position(fld.Pos()),
						Pass: pass,
						Msg:  fmt.Sprintf("guard comment names %q, which is not a field of %s", mu, ts.Name.Name),
					})
					continue
				}
				for _, name := range fld.Names {
					if obj := pkg.Info.Defs[name]; obj != nil {
						guards[obj] = mu
						if tobj := pkg.Info.Defs[ts.Name]; tobj != nil {
							structOf[tobj] = true
						}
					}
				}
			}
			return true
		})
	}
	return guards, structOf, diags
}

// Run implements Pass.
func (lg *Lockguard) Run(pkg *Package) []Diagnostic {
	guards, structOf, diags := collectGuards(pkg, lg.Name())
	if len(guards) == 0 {
		return diags
	}

	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Locked") {
				continue // caller-holds convention
			}
			recvType, recvVar := receiverInfo(pkg, fn)
			if recvType == nil || recvVar == nil || !structOf[recvType] {
				continue
			}
			diags = append(diags, runGuardWalk(pkg, lg.Name(), guards, recvVar, fn)...)
		}
	}
	return diags
}

// guardSet maps a guarded field object to the name of the sibling mutex
// field that protects it.
type guardSet map[types.Object]string

// runGuardWalk checks one method body with the shared must-hold walker,
// scoped to the receiver: recv.<mu>.Lock() acquires, and recv.<field>
// accesses are checked against the held set.
func runGuardWalk(pkg *Package, pass string, guards guardSet, recv types.Object, fn *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	muNames := map[string]bool{}
	for _, mu := range guards {
		muNames[mu] = true
	}
	w := &holdWalker{
		pkg: pkg,
		classify: func(call *ast.CallExpr) (string, string) {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !isMutexOpName(sel.Sel.Name) {
				return "", ""
			}
			inner, ok := sel.X.(*ast.SelectorExpr)
			if !ok {
				return "", ""
			}
			id, ok := inner.X.(*ast.Ident)
			if !ok || pkg.Info.Uses[id] != recv || !muNames[inner.Sel.Name] {
				return "", ""
			}
			return inner.Sel.Name, sel.Sel.Name
		},
		onAccess: func(sel *ast.SelectorExpr, held map[string]bool) {
			id, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Info.Uses[id] != recv {
				return
			}
			obj := pkg.Info.Uses[sel.Sel]
			if obj == nil {
				obj = pkg.Info.Defs[sel.Sel]
			}
			mu, guarded := guards[obj]
			if !guarded || held[mu] {
				return
			}
			diags = append(diags, Diagnostic{
				Pos:  pkg.Fset.Position(sel.Pos()),
				Pass: pass,
				Msg:  fmt.Sprintf("%s.%s is guarded by %s, which is not held here", id.Name, sel.Sel.Name, mu),
			})
		},
	}
	w.block(fn.Body.List, map[string]bool{})
	return diags
}

// guardAnnotation extracts the mutex name from a field's doc or trailing
// comment, or "" if the field is unannotated.
func guardAnnotation(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// receiverInfo resolves a method's receiver to its named-type object and
// receiver variable object.
func receiverInfo(pkg *Package, fn *ast.FuncDecl) (types.Object, types.Object) {
	if len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil, nil
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return nil, nil
	}
	return pkg.Info.Uses[id], pkg.Info.Defs[fn.Recv.List[0].Names[0]]
}

// isPanic reports whether e is a call to the builtin panic.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func copyHeld(h map[string]bool) map[string]bool {
	out := make(map[string]bool, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

func replaceHeld(dst, src map[string]bool) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

func intersectHeld(dst, src map[string]bool) {
	for k, v := range dst {
		dst[k] = v && src[k]
	}
}
