package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// parsedPkg is one directory's worth of parsed, not-yet-type-checked files.
type parsedPkg struct {
	path    string // import path
	dir     string
	files   []*ast.File
	imports map[string]bool // module-internal imports only
}

// LoadOptions widens what LoadOpts pulls into the analysis universe.
type LoadOptions struct {
	// IncludeTests loads _test.go files as well. In-package test files
	// join their package's Pass; external foo_test packages become their
	// own Pass whose Path carries a " [test]" suffix (so package-scoped
	// analyzer registries never match them by accident).
	IncludeTests bool
}

// LoadModuleOpts locates go.mod in root and loads every package in the
// module through LoadOpts. This is the entry point cmd/gqlvet uses.
func LoadModuleOpts(fset *token.FileSet, root string, opts LoadOptions) ([]*Pass, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", root)
	}
	return LoadOpts(fset, root, modPath, opts)
}

// LoadOpts parses and type-checks every package under root (test files
// only with opts.IncludeTests). A directory <root>/a/b maps to import path
// <modPath>/a/b (root itself to modPath). Module-internal imports resolve
// to the packages being loaded; everything else (the standard library)
// resolves through the source importer, so no compiled export data is
// needed. A package with a type error fails the whole load.
func LoadOpts(fset *token.FileSet, root, modPath string, opts LoadOptions) ([]*Pass, error) {
	pkgs, err := parseTree(fset, root, modPath, opts)
	if err != nil {
		return nil, err
	}
	order, err := topoSort(pkgs)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		done:     map[string]*types.Package{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	var passes []*Pass
	for _, pp := range order {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(pp.path, fset, pp.files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", pp.path, err)
		}
		imp.done[pp.path] = pkg
		passes = append(passes, &Pass{
			Fset:  fset,
			Path:  pp.path,
			Files: pp.files,
			Pkg:   pkg,
			Info:  info,
		})
	}
	sort.Slice(passes, func(i, j int) bool { return passes[i].Path < passes[j].Path })
	return passes, nil
}

// moduleImporter serves already-type-checked module packages and falls back
// to compiling the standard library from source.
type moduleImporter struct {
	done     map[string]*types.Package
	fallback types.Importer
}

// Import implements types.Importer.
func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.done[path]; ok {
		return pkg, nil
	}
	return m.fallback.Import(path)
}

// parseTree walks root collecting one parsedPkg per directory that holds
// Go files (plus, with IncludeTests, one per external foo_test package).
// testdata, hidden and underscore-prefixed directories are skipped, as the
// go tool does.
func parseTree(fset *token.FileSet, root, modPath string, opts LoadOptions) (map[string]*parsedPkg, error) {
	pkgs := map[string]*parsedPkg{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !opts.IncludeTests {
			return nil
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ipath := modPath
		if rel != "." {
			ipath = modPath + "/" + filepath.ToSlash(rel)
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		// External test packages (package foo_test) type-check as their
		// own unit; in-package _test.go files join the base package.
		if isTest && strings.HasSuffix(file.Name.Name, "_test") {
			ipath += " [test]"
		}
		pp := pkgs[ipath]
		if pp == nil {
			pp = &parsedPkg{path: ipath, dir: dir, imports: map[string]bool{}}
			pkgs[ipath] = pp
		}
		pp.files = append(pp.files, file)
		for _, im := range file.Imports {
			q := strings.Trim(im.Path.Value, `"`)
			if q == modPath || strings.HasPrefix(q, modPath+"/") {
				pp.imports[q] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("analysis: no Go packages under %s", root)
	}
	// Deterministic file order within each package.
	for _, pp := range pkgs {
		sort.Slice(pp.files, func(i, j int) bool {
			return fset.Position(pp.files[i].Pos()).Filename < fset.Position(pp.files[j].Pos()).Filename
		})
	}
	return pkgs, nil
}

// topoSort orders packages so every module-internal import precedes its
// importer.
func topoSort(pkgs map[string]*parsedPkg) ([]*parsedPkg, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		doneMark  = 2
	)
	state := map[string]int{}
	var order []*parsedPkg
	var visit func(path string) error
	visit = func(path string) error {
		pp, ok := pkgs[path]
		if !ok {
			return nil // import of a module path not under root (not loadable)
		}
		switch state[path] {
		case visiting:
			return fmt.Errorf("analysis: import cycle through %s", path)
		case doneMark:
			return nil
		}
		state[path] = visiting
		deps := make([]string, 0, len(pp.imports))
		for d := range pp.imports {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[path] = doneMark
		order = append(order, pp)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}
