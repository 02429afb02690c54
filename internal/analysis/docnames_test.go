package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// designBudget is DESIGN.md's size limit in bytes: a map of the tree, not
// its history (CHANGES.md and git keep that).
const designBudget = 60 << 10

// citedDocs are the documents whose backticked names must exist.
var citedDocs = []string{"DESIGN.md", "README.md"}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	goName     = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*(\.[A-Za-z][A-Za-z0-9]*)+$`)
	testName   = regexp.MustCompile(`^(Test|Fuzz|Benchmark)([A-Z_]|$)`)
	fileName   = regexp.MustCompile(`\.(md|json|jsonl|go|s|sh|txt|prof|mod|out)$`)
)

// TestDocsCiteOnlyLiveNames keeps DESIGN.md and README.md true to the
// tree. Every backticked token outside fenced blocks that reads as one of
// three kinds of name must exist, unless DESIGN.md's "Removed names" table
// lists it (and a name listed there must be gone):
//
//   - a Go name: pkg.Name, pkg.Type.Member or Type.Member, whose first
//     element is a module package or a capitalised name, resolved against
//     the type-checked module (tokens with an underscore are metric names
//     and lower-case tokens that name no module package are skipped, so
//     atp.rank_ns and sync.Cond pass unread);
//   - a repo path under internal/, cmd/, examples/, scripts/ or bench/,
//     or one like core/gate.go that names a directory under internal/;
//   - a Test, Fuzz or Benchmark function of the module's _test.go files,
//     alone, behind a package (core.TestGauntlet) or before a subtest.
//
// DESIGN.md must also stay within designBudget bytes.
func TestDocsCiteOnlyLiveNames(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := newNameIndex(root, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(design) > designBudget {
		t.Errorf("DESIGN.md is %d bytes, over its %d-byte budget", len(design), designBudget)
	}
	removed := removedNames(string(design))
	for name := range removed {
		if read, why := idx.resolve(name); read && why == "" {
			t.Errorf("DESIGN.md: %q is in the Removed names table but still exists", name)
		}
	}
	for _, doc := range citedDocs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range citations(string(text)) {
			if removed[c.token] {
				continue
			}
			if _, why := idx.resolve(c.token); why != "" {
				t.Errorf("%s:%d: `%s`: %s", doc, c.line, c.token, why)
			}
		}
	}
}

// citation is one token of a backticked span and the line it is on.
type citation struct {
	token string
	line  int
}

// citations splits every backticked span outside fenced blocks into
// tokens of name characters (letters, digits, _ . / -).
func citations(text string) []citation {
	var out []citation
	fenced := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(line, -1) {
			for _, tok := range strings.FieldsFunc(m[1], func(r rune) bool {
				return !(r < unicode.MaxASCII && (unicode.IsLetter(r) || unicode.IsDigit(r)) || strings.ContainsRune("_./-", r))
			}) {
				out = append(out, citation{tok, i + 1})
			}
		}
	}
	return out
}

// removedNames reads the first column of DESIGN.md's "Removed names" table.
func removedNames(design string) map[string]bool {
	names := map[string]bool{}
	_, table, ok := strings.Cut(design, "## Removed names")
	if !ok {
		return names
	}
	for _, line := range strings.Split(table, "\n")[1:] {
		if strings.HasPrefix(line, "#") {
			break
		}
		if cell, ok := strings.CutPrefix(line, "|"); ok {
			first, _, _ := strings.Cut(cell, "|")
			for _, c := range citations(first) {
				names[c.token] = true
			}
		}
	}
	return names
}

// nameIndex is what a citation may resolve against.
type nameIndex struct {
	root     string
	pkgs     map[string][]*Package // by package name, commands left out
	types    map[string][]*types.TypeName
	internal map[string]bool // directory names under internal/
	tests    map[string]map[string]bool
}

func newNameIndex(root string, pkgs []*Package) (*nameIndex, error) {
	idx := &nameIndex{root: root, pkgs: map[string][]*Package{}, types: map[string][]*types.TypeName{},
		internal: map[string]bool{}, tests: map[string]map[string]bool{}}
	for _, p := range pkgs {
		name := p.Types.Name()
		if name == "main" {
			continue
		}
		idx.pkgs[name] = append(idx.pkgs[name], p)
		scope := p.Types.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok && tn.Exported() {
				idx.types[n] = append(idx.types[n], tn)
			}
		}
	}
	dirs, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		idx.internal[d.Name()] = d.IsDir()
	}
	// Test functions by package name, from every _test.go file.
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if idx.tests[pkg] == nil {
			idx.tests[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testName.MatchString(fn.Name.Name) {
				idx.tests[pkg][fn.Name.Name] = true
			}
		}
		return nil
	})
	return idx, err
}

// resolve reports whether tok reads as a name this test checks and, if
// so, why it names nothing ("" when it exists).
func (idx *nameIndex) resolve(tok string) (read bool, why string) {
	tok = strings.TrimSuffix(strings.TrimPrefix(tok, "./"), ".")
	if first, _, ok := strings.Cut(tok, "/"); ok && !testName.MatchString(first) {
		return idx.resolvePath(tok, first)
	}
	tok, _, _ = strings.Cut(tok, "/") // a subtest
	elems := strings.Split(tok, ".")
	if last := elems[len(elems)-1]; testName.MatchString(last) {
		return true, idx.resolveTest(elems)
	}
	if !goName.MatchString(tok) {
		return false, ""
	}
	if pkgs, ok := idx.pkgs[elems[0]]; ok {
		for _, p := range pkgs {
			if lookupPath(p.Types.Scope().Lookup(elems[1]), elems[2:]) {
				return true, ""
			}
		}
		return true, "no such name in package " + elems[0]
	}
	if !unicode.IsUpper(rune(tok[0])) || fileName.MatchString(tok) {
		return false, ""
	}
	for _, tn := range idx.types[elems[0]] {
		if lookupPath(tn, elems[1:]) {
			return true, ""
		}
	}
	return true, "no exported module type " + elems[0] + " with that member"
}

// lookupPath walks the fields and methods named by path from obj.
func lookupPath(obj types.Object, path []string) bool {
	for _, name := range path {
		if obj == nil {
			return false
		}
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), name)
	}
	return obj != nil
}

// resolvePath checks a path under a top-level source directory, or one
// relative to internal/.
func (idx *nameIndex) resolvePath(tok, first string) (read bool, why string) {
	switch {
	case first == "internal" || first == "cmd" || first == "examples" || first == "scripts" || first == "bench":
	case idx.internal[first]:
		tok = "internal/" + tok
	default:
		return false, ""
	}
	if _, err := os.Stat(filepath.Join(idx.root, filepath.FromSlash(tok))); err != nil {
		return true, "no such path " + tok
	}
	return true, ""
}

// resolveTest finds a test function, in the named package when one is
// given and anywhere otherwise.
func (idx *nameIndex) resolveTest(elems []string) string {
	name := elems[len(elems)-1]
	if len(elems) == 2 && idx.tests[elems[0]] != nil {
		if idx.tests[elems[0]][name] {
			return ""
		}
		return "no test " + name + " in package " + elems[0]
	}
	for _, fns := range idx.tests {
		if fns[name] {
			return ""
		}
	}
	return "no test function " + name
}
