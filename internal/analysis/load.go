package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the tree under analysis: the
// parsed files (with comments), the shared position set, and the go/types
// objects every pass keys its reasoning on.
type Package struct {
	// Path is the import path ("rog/internal/engine" for module packages,
	// the root-relative directory for fixture trees loaded without a module
	// path).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// loader type-checks a directory tree with nothing but the standard
// library: module-internal imports are resolved by recursively checking
// the sibling directory, everything else is delegated to the stdlib
// source importer (which reads GOROOT source, so no compiled export data
// or network is needed).
type loader struct {
	root    string
	modPath string
	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// Load parses and type-checks every non-test package under root. modPath
// is the module path used to resolve intra-tree imports; pass "" for
// self-contained trees (fixtures) whose packages only import the standard
// library. Directories named testdata and hidden directories are skipped.
// Packages are returned sorted by import path.
func Load(root, modPath string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	build.Default.CgoEnabled = false // type-check net & friends as pure Go
	fset := token.NewFileSet()
	ld := &loader{
		root:    root,
		modPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	var dirs []string
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
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if _, err := ld.loadDir(dir); err != nil {
			return nil, err
		}
	}
	out := make([]*Package, 0, len(ld.pkgs))
	for _, p := range ld.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// ModulePath reads the module path from root/go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", root)
}

// pkgPath maps an absolute directory to its import path.
func (ld *loader) pkgPath(dir string) (string, error) {
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	switch {
	case rel == ".":
		if ld.modPath == "" {
			// A fixture tree with files at its root: name the package
			// after the directory.
			return filepath.Base(dir), nil
		}
		return ld.modPath, nil
	case ld.modPath == "":
		return rel, nil
	default:
		return ld.modPath + "/" + rel, nil
	}
}

// loadDir type-checks the package in dir, memoized by import path.
func (ld *loader) loadDir(dir string) (*Package, error) {
	path, err := ld.pkgPath(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// _GOOS/_GOARCH suffixes and //go:build lines, as the go command reads them.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("analysis: %s: mixed packages %s and %s", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: %s: no non-test Go files", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importerFunc(ld.importPkg)}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Fset: ld.fset, Files: files, Types: tpkg, Info: info}
	ld.pkgs[path] = p
	return p, nil
}

// importPkg resolves one import: module-internal paths load their source
// directory, everything else is standard library.
func (ld *loader) importPkg(path string) (*types.Package, error) {
	if ld.modPath != "" {
		if path == ld.modPath {
			p, err := ld.loadDir(ld.root)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
		if rest, ok := strings.CutPrefix(path, ld.modPath+"/"); ok {
			p, err := ld.loadDir(filepath.Join(ld.root, filepath.FromSlash(rest)))
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
	}
	return ld.std.ImportFrom(path, ld.root, 0)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
