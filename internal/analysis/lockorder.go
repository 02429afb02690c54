package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Lockorder pins the sharded runtime's deadlock-freedom argument: the
// documented acquisition order (caller's lock → State.mu → shard.mu →
// store.mu) becomes a machine-checked declaration,
//
//	//roglint:lockorder Server.mu < State.mu < stateShard.mu < Store.mu
//
// and every Lock/RLock site is checked against it. Locks are identified
// by type-qualified label ("Type.field" for a sync.Mutex/RWMutex field of
// a named struct), which conflates instances of one type — adequate for
// a tree whose order is declared per type, and the reason striped
// same-type acquisition (ascending shard loops) does not self-report:
// the walk visits a loop body once, so a loop acquires its label once.
//
// The analysis is cross-package: each Run records, per function, the
// locks acquired directly, the static call edges, and every call made
// with locks held; Finish closes the call graph (interface and func-value
// calls are unresolvable and conservatively dropped — the tree's
// observer-chain/FS/Policy indirections hide no state locks on their far
// side), derives held → acquired edges, and reports three shapes of
// finding: an edge that inverts the declared order (the message quotes the
// violated "A < B" pair), an edge that closes a cycle in the measured
// graph, and a re-acquisition of an already-held label.
type Lockorder struct {
	decls     []loDecl
	funcs     map[*types.Func]*loFunc
	edges     []loEdge
	heldCalls []loHeldCall
}

// NewLockorder returns the pass.
func NewLockorder() *Lockorder {
	return &Lockorder{funcs: map[*types.Func]*loFunc{}}
}

// Name implements Pass.
func (*Lockorder) Name() string { return "lockorder" }

// Doc implements Pass.
func (*Lockorder) Doc() string {
	return "lock acquisitions must respect the declared //roglint:lockorder"
}

// lockorderDirective introduces an order declaration:
//
//	//roglint:lockorder A.mu < B.mu < C.mu
//
// Each label is Type.field; chains compose transitively across
// declarations.
const lockorderDirective = "roglint:lockorder"

var lockLabelRe = regexp.MustCompile(`^\w+\.\w+$`)

// loDecl is one parsed declaration chain.
type loDecl struct {
	pos    token.Position
	labels []string
}

// loFunc is one function's lock summary.
type loFunc struct {
	direct map[string]bool      // labels acquired in the body
	calls  map[*types.Func]bool // statically resolved callees
}

// loEdge is one measured acquisition edge: to was acquired while from
// was held. direct edges sit at a Lock call; indirect ones at the call
// whose transitive summary acquires to.
type loEdge struct {
	from, to string
	pos      token.Position
	direct   bool
}

// loHeldCall is a call made with locks held, resolved later against the
// callee's transitive acquisitions.
type loHeldCall struct {
	held   []string
	callee *types.Func
	pos    token.Position
}

// Run implements Pass: it accumulates declarations, function summaries
// and direct edges; findings come from Finish once every package has
// been seen. Malformed declarations are reported immediately.
func (lo *Lockorder) Run(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, c := range fileComments(f) {
			decl, bad, ok := parseLockorderDecl(pkg, c)
			if !ok {
				continue
			}
			if bad != "" {
				diags = append(diags, Diagnostic{
					Pos:  pkg.Fset.Position(c.Pos()),
					Pass: lo.Name(),
					Msg:  bad,
				})
				continue
			}
			lo.decls = append(lo.decls, decl)
		}
	}

	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fnObj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
			if fnObj == nil {
				continue
			}
			lf := lo.funcs[fnObj]
			if lf == nil {
				lf = &loFunc{direct: map[string]bool{}, calls: map[*types.Func]bool{}}
				lo.funcs[fnObj] = lf
			}
			w := &holdWalker{
				pkg: pkg,
				classify: func(call *ast.CallExpr) (string, string) {
					return mutexFieldOp(pkg, call)
				},
				onAcquire: func(call *ast.CallExpr, key string, held map[string]bool) {
					lf.direct[key] = true
					pos := pkg.Fset.Position(call.Pos())
					for _, h := range heldLabels(held) {
						// h == key yields the self-edge reported as a
						// re-acquisition.
						lo.edges = append(lo.edges, loEdge{from: h, to: key, pos: pos, direct: true})
					}
				},
				onCall: func(call *ast.CallExpr, held map[string]bool) {
					callee := calleeOf(pkg, call)
					if callee == nil {
						return
					}
					lf.calls[callee] = true
					if hs := heldLabels(held); len(hs) > 0 {
						lo.heldCalls = append(lo.heldCalls, loHeldCall{
							held:   hs,
							callee: callee,
							pos:    pkg.Fset.Position(call.Pos()),
						})
					}
				},
			}
			w.block(fn.Body.List, map[string]bool{})
		}
	}
	return diags
}

// parseLockorderDecl parses one comment. ok is false when the comment is
// not a lockorder directive at all; bad carries the malformation message
// when it is one but does not parse.
func parseLockorderDecl(pkg *Package, c *ast.Comment) (decl loDecl, bad string, ok bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	rest, found := strings.CutPrefix(text, lockorderDirective)
	if !found {
		return loDecl{}, "", false
	}
	// Allow a trailing line comment after the chain (fixtures carry
	// want markers there).
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	var labels []string
	for _, tok := range strings.Split(rest, "<") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if !lockLabelRe.MatchString(tok) {
			return loDecl{}, fmt.Sprintf("//roglint:lockorder label %q is not Type.field", tok), true
		}
		labels = append(labels, tok)
	}
	if len(labels) < 2 {
		return loDecl{}, "//roglint:lockorder needs at least two labels: //roglint:lockorder A.mu < B.mu", true
	}
	return loDecl{pos: pkg.Fset.Position(c.Pos()), labels: labels}, "", true
}

// heldLabels returns the definitely-held labels in sorted order.
func heldLabels(held map[string]bool) []string {
	var out []string
	for k, v := range held {
		if v {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Finish implements Finisher: with every package summarized, close the
// call graph, derive the full edge set, and check it against the
// declared order.
func (lo *Lockorder) Finish() []Diagnostic {
	var diags []Diagnostic

	before, conflicts, conflictDiags := lo.declaredOrder()
	diags = append(diags, conflictDiags...)

	acq := lo.transitiveAcquires()

	edges := append([]loEdge(nil), lo.edges...)
	for _, hc := range lo.heldCalls {
		acquired := acq[hc.callee]
		if len(acquired) == 0 {
			continue
		}
		for _, to := range sortedKeys(acquired) {
			for _, from := range hc.held {
				edges = append(edges, loEdge{from: from, to: to, pos: hc.pos, direct: false})
			}
		}
	}

	adj := map[string]map[string]bool{}
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}

	seen := map[string]bool{}
	for _, e := range edges {
		key := fmt.Sprintf("%s|%s|%s", e.from, e.to, e.pos)
		if seen[key] {
			continue
		}
		seen[key] = true
		switch {
		case e.from == e.to:
			diags = append(diags, Diagnostic{
				Pos:  e.pos,
				Pass: lo.Name(),
				Msg:  fmt.Sprintf("re-acquires %s while it is already held (self-deadlock on one instance; distinct instances need an ignore with the ordering argument)", e.to),
			})
		case conflicts[pairKey(e.from, e.to)]:
			// Both directions are declared; the declarations themselves
			// were already reported, so the edges stay quiet.
		case before[e.to] != nil && before[e.to][e.from]:
			verb := "acquiring"
			if !e.direct {
				verb = "call acquires"
			}
			diags = append(diags, Diagnostic{
				Pos:  e.pos,
				Pass: lo.Name(),
				Msg:  fmt.Sprintf("%s %s while holding %s inverts the declared lock order (%s < %s)", verb, e.to, e.from, e.to, e.from),
			})
		case before[e.from] != nil && before[e.from][e.to]:
			// Conforms to the declared order. If a cycle runs through it,
			// the inverting edge is the offender and reports at its own
			// site; flagging the conforming edge too would just be noise.
		case reachable(adj, e.to, e.from):
			diags = append(diags, Diagnostic{
				Pos:  e.pos,
				Pass: lo.Name(),
				Msg:  fmt.Sprintf("acquiring %s while holding %s closes a lock-order cycle (%s is also acquired while %s is held); declare a //roglint:lockorder for them", e.to, e.from, e.from, e.to),
			})
		}
	}
	return diags
}

// declaredOrder folds every declaration chain into a transitive "a must
// be acquired before b" relation. Conflicts (a pair ordered both ways,
// directly or transitively) are reported at the declaration that closes
// them and recorded so edge checking can skip the poisoned pairs.
func (lo *Lockorder) declaredOrder() (before map[string]map[string]bool, conflicts map[string]bool, diags []Diagnostic) {
	before = map[string]map[string]bool{}
	conflicts = map[string]bool{}
	addPair := func(a, b string) {
		if before[a] == nil {
			before[a] = map[string]bool{}
		}
		before[a][b] = true
	}
	for _, d := range lo.decls {
		for i := 0; i < len(d.labels); i++ {
			for j := i + 1; j < len(d.labels); j++ {
				addPair(d.labels[i], d.labels[j])
			}
		}
		closeOrder(before)
		for _, a := range sortedKeys(beforeDomain(before)) {
			for _, b := range sortedKeys(before[a]) {
				if a == b {
					// A conflicting pair closes to a <= a; the pair
					// itself is the reportable fact.
					continue
				}
				if before[b] != nil && before[b][a] && !conflicts[pairKey(a, b)] {
					conflicts[pairKey(a, b)] = true
					lo, hi := a, b
					if hi < lo {
						lo, hi = hi, lo
					}
					diags = append(diags, Diagnostic{
						Pos:  d.pos,
						Pass: "lockorder",
						Msg:  fmt.Sprintf("lock-order declarations order %s and %s both ways", lo, hi),
					})
				}
			}
		}
	}
	return before, conflicts, diags
}

// closeOrder computes the transitive closure of before in place.
func closeOrder(before map[string]map[string]bool) {
	for changed := true; changed; {
		changed = false
		for _, succ := range before {
			for b := range succ {
				for c := range before[b] {
					if !succ[c] {
						succ[c] = true
						changed = true
					}
				}
			}
		}
	}
}

// beforeDomain collects the relation's left-hand labels as a set.
func beforeDomain(before map[string]map[string]bool) map[string]bool {
	out := map[string]bool{}
	for a := range before {
		out[a] = true
	}
	return out
}

// transitiveAcquires computes, per function, every label reachable
// through its static call graph (a fixpoint over the recorded
// summaries).
func (lo *Lockorder) transitiveAcquires() map[*types.Func]map[string]bool {
	acq := map[*types.Func]map[string]bool{}
	for fn, lf := range lo.funcs {
		acq[fn] = map[string]bool{}
		for l := range lf.direct {
			acq[fn][l] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, lf := range lo.funcs {
			for callee := range lf.calls {
				for l := range acq[callee] {
					if !acq[fn][l] {
						acq[fn][l] = true
						changed = true
					}
				}
			}
		}
	}
	return acq
}

// reachable reports whether to is reachable from from in the measured
// edge graph.
func reachable(adj map[string]map[string]bool, from, to string) bool {
	seen := map[string]bool{}
	stack := []string{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		for next := range adj[n] {
			if !seen[next] {
				stack = append(stack, next)
			}
		}
	}
	return false
}

// pairKey is an order-insensitive key for a label pair.
func pairKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "|" + b
}

// sortedKeys returns a set's keys in sorted order.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
