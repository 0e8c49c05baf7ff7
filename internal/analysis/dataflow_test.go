package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseUnit type-checks one source file and returns the pass plus the named
// function's unit.
func parseUnit(t *testing.T, src, fn string) (*Pass, funcUnit) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "unit.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("unit", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	pass := &Pass{Fset: fset, Path: "unit", Files: []*ast.File{file}, Pkg: pkg, Info: info}
	for _, u := range funcUnits(file) {
		if u.Name == fn {
			return pass, u
		}
	}
	t.Fatalf("function %q not found", fn)
	return nil, funcUnit{}
}

const taintSrc = `package unit

import "time"

func consume(any)

func flows() {
	t0 := time.Now()
	d := time.Since(t0)
	ms := d.Milliseconds()
	clean := 42
	consume(ms)
	consume(clean)
}
`

func TestTaintClosure(t *testing.T) {
	pass, u := parseUnit(t, taintSrc, "flows")
	tainted := taintedVars(pass, u, taintSpec{
		seed: func(e ast.Expr) bool {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return false
			}
			fn := calleeOf(pass, call)
			return isPkgFunc(fn, "time", "Now") || isPkgFunc(fn, "time", "Since")
		},
		// Method calls break taint by default; opt duration accessors in.
		carrier: func(e ast.Expr, carries func(ast.Expr) bool) bool {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return false
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			return ok && carries(sel.X)
		},
	})
	names := map[string]bool{}
	for v := range tainted {
		names[v.Name()] = true
	}
	for _, want := range []string{"t0", "d", "ms"} {
		if !names[want] {
			t.Errorf("%s should be tainted", want)
		}
	}
	if names["clean"] {
		t.Error("clean must not be tainted")
	}
}
