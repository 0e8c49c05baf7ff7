// Package analysis is gqldb's project-specific static-analysis suite: a
// small, stdlib-only (go/parser + go/ast + go/types) analyzer framework and
// six analyzers that mechanize the review rules the query engine, the
// store and the server depend on:
//
//   - panicfree: no panic/log.Fatal in hot-path packages (explicit allowlist
//     for constructor-time panics in graph)
//   - valuecmp: no ==/!=/reflect.DeepEqual on graph.Value or graph.Tuple;
//     use Compare/Equal
//   - gosafe: goroutine bodies (go statements and pool.Run literals) must
//     not call known non-thread-safe methods or write captured variables
//     without index partitioning
//   - errwrap: exported internal functions returning error must package-
//     prefix their messages or wrap with %w
//   - detmerge: no map-order, wall-clock or global-rand nondeterminism in
//     merge and result paths
//   - aliasguard: values returned by the store's shared-by-reference
//     accessors must not be mutated
//
// Each one is the only gate — beside go vet, go test and go test -race —
// that catches some seeded bug in DESIGN.md §10's table; recbound and
// ctxpoll caught nothing the tests did not, and were deleted. Value
// provenance goes through dataflow.go's flow-insensitive taint closure.
//
// The driver lives in cmd/gqlvet.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// ignoreLines collects `//gqlvet:ignore name[,name...]` comments keyed by
// "file:line" → analyzer-name set.
func ignoreLines(p *Pass) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), " ")
				rest, ok := strings.CutPrefix(text, "gqlvet:ignore")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				key := pos.Filename + ":" + strconv.Itoa(pos.Line)
				names := out[key]
				if names == nil {
					names = map[string]bool{}
					out[key] = names
				}
				for _, n := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					names[n] = true
				}
			}
		}
	}
	return out
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is one type-checked package handed to each analyzer.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path, e.g. gqldb/internal/match
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer string
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos for the running analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full gqlvet analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{
		PanicFree,
		ValueCmp,
		GoSafe,
		ErrWrap,
		DetMerge,
		AliasGuard,
	}
}

// Run applies the analyzers to every pass and returns all diagnostics in
// deterministic (file, line, column, analyzer) order. A diagnostic whose
// line carries a `//gqlvet:ignore <name>[,<name>...]` (or
// `//gqlvet:ignore all`) comment is suppressed.
func Run(passes []*Pass, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range passes {
		ignores := ignoreLines(p)
		for _, a := range analyzers {
			p.analyzer = a.Name
			p.diags = nil
			a.Run(p)
			for _, d := range p.diags {
				key := d.Pos.Filename + ":" + strconv.Itoa(d.Pos.Line)
				if ignores[key][a.Name] || ignores[key]["all"] {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// pathHasSuffix reports whether the import path is exactly suffix or ends
// with "/"+suffix (so "internal/match" matches "gqldb/internal/match" but
// not "gqldb/internal/matchmaker").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// pathHasAnySuffix reports whether the import path matches any suffix.
func pathHasAnySuffix(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// namedFromGraph reports whether t (after unwrapping one layer of pointer
// or slice) is the named type internal/graph.<name>.
func namedFromGraph(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		t = u.Elem()
	case *types.Slice:
		t = u.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Name() == name && pathHasSuffix(obj.Pkg().Path(), "internal/graph")
}

// trimToInternal strips a module prefix down to the trailing
// "internal/..." segment so allowlist keys are module-name independent.
func trimToInternal(path string) string {
	if i := strings.Index(path, "internal/"); i >= 0 {
		return path[i:]
	}
	return path
}

// funcKey names a declaration the way the allowlists spell it:
// "internal/graph.TupleOf" or "internal/graph.(*Graph).AddNode".
func funcKey(pkgPath string, decl *ast.FuncDecl) string {
	pkg := trimToInternal(pkgPath)
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return pkg + "." + decl.Name.Name
	}
	recv := decl.Recv.List[0].Type
	star := ""
	if se, ok := recv.(*ast.StarExpr); ok {
		star = "*"
		recv = se.X
	}
	// Strip generic type parameters if present.
	if ix, ok := recv.(*ast.IndexExpr); ok {
		recv = ix.X
	}
	name := "?"
	if id, ok := recv.(*ast.Ident); ok {
		name = id.Name
	}
	if star != "" {
		return pkg + ".(*" + name + ")." + decl.Name.Name
	}
	return pkg + "." + name + "." + decl.Name.Name
}
