package main

import (
	"testing"

	"rog/internal/analysis"
)

// TestSubsetRunSeesWholeProgram pins what a package argument means: it
// selects findings, not what is analysed. durable's one lockorder
// suppression answers a declaration in engine/state.go; a run that loaded
// durable alone reported it as matching nothing.
func TestSubsetRunSeesWholeProgram(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := analysis.ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, modPath)
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err := findings(pkgs, analysis.DefaultPasses(), modPath, []string{"./internal/durable"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("roglint ./internal/durable on the clean tree: %s", d)
	}
	// The filter keeps what is in the package and nothing else.
	diags, _, err = findings(pkgs, []analysis.Pass{perPackage{}}, modPath, []string{"./internal/durable"})
	if err != nil || len(diags) != 1 || diags[0].Msg != modPath+"/internal/durable" {
		t.Errorf("one finding per package, filtered to durable: got %v (err %v)", diags, err)
	}
	if _, _, err := findings(pkgs, nil, modPath, []string{"./internal/nosuch"}); err == nil {
		t.Error("a pattern matching no package was accepted")
	}
}

// perPackage reports every package once, at its first file.
type perPackage struct{}

func (perPackage) Name() string { return "perpackage" }
func (perPackage) Doc() string  { return "one finding per package" }
func (perPackage) Run(pkg *analysis.Package) []analysis.Diagnostic {
	return []analysis.Diagnostic{{Pos: pkg.Fset.Position(pkg.Files[0].Pos()), Pass: "perpackage", Msg: pkg.Path}}
}
