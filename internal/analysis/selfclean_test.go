package analysis

import (
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// loadModule type-checks the real module once for every test that reads it
// (no pass mutates a Package).
var loadModule = sync.OnceValues(func() ([]*Package, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	return Load(root, modPath)
})

// TestModuleSelfClean runs the full pass suite over the real module and
// requires zero findings — the same gate scripts/verify.sh enforces via
// cmd/roglint. A failure here means a change broke a checked invariant
// (or needs a justified //roglint:ignore).
func TestModuleSelfClean(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded (%d); loader lost the tree", len(pkgs))
	}
	diags := Analyze(pkgs, DefaultPasses())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("module is not roglint-clean: %d finding(s)", len(diags))
	}
}

// TestPassesHaveTraffic fails when a pass is left with nothing to read: a
// renamed package silently empties a scope list, and a pass whose last
// annotation is gone should go with it rather than linger.
func TestPassesHaveTraffic(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	scopes := map[string][]string{
		"wallclock.Restricted": NewWallclock().Restricted,
		"errdrop.Scoped":       NewErrdrop().Scoped,
		"wireframe.Scoped":     NewWireframe().Scoped,
	}
	for name, suffixes := range scopes {
		for _, suffix := range suffixes {
			if !slices.ContainsFunc(pkgs, func(p *Package) bool { return pathMatches(p.Path, suffix) }) {
				t.Errorf("%s names %q, which matches no loaded package", name, suffix)
			}
		}
	}
	guards, wires, lo := 0, 0, NewLockorder()
	for _, pkg := range pkgs {
		g, _, _ := collectGuards(pkg, "lockguard")
		guards += len(g)
		lo.Run(pkg)
		for _, f := range pkg.Files {
			for _, c := range fileComments(f) {
				if strings.HasPrefix(c.Text, "//"+wireMarker) {
					wires++
				}
			}
		}
	}
	// ROADMAP's "State of the tree" quotes these counts; its guard count
	// leaves out bench/'s 4.
	t.Logf("sibling guards %d, lockorder declarations %d, wire markers %d", guards, len(lo.decls), wires)
	if guards == 0 || len(lo.decls) == 0 || wires == 0 {
		t.Errorf("sibling guards %d, lockorder declarations %d, wire markers %d: each must be >= 1", guards, len(lo.decls), wires)
	}
}

// TestModulePathParsesGoMod pins the module path the loader resolves
// intra-tree imports with.
func TestModulePathParsesGoMod(t *testing.T) {
	mp, err := ModulePath(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if mp != "rog" {
		t.Fatalf("module path = %q, want rog", mp)
	}
}
