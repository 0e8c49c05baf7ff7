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
// function's unit and CFG.
func parseUnit(t *testing.T, src, fn string) (*Pass, funcUnit, *CFG) {
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
			return pass, u, NewCFG(u.Body)
		}
	}
	t.Fatalf("function %q not found", fn)
	return nil, funcUnit{}, nil
}

// findCall locates the first call whose printed callee contains name.
func findCall(t *testing.T, body ast.Node, name string) *ast.CallExpr {
	t.Helper()
	var out *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == name {
				out = call
				return false
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				out = call
				return false
			}
		}
		return true
	})
	if out == nil {
		t.Fatalf("call %q not found", name)
	}
	return out
}

const domSrc = `package unit

func sink(int)
func pre()
func inBranch()
func post()

func guarded(n int) {
	pre()
	if n > 0 {
		inBranch()
	}
	post()
}

func loop(n int) {
	for i := 0; i < n; i++ {
		pre()
		if i%2 == 0 {
			continue
		}
		inBranch()
	}
	post()
}

func whileTrue(done chan struct{}) {
	for {
		select {
		case <-done:
			return
		default:
		}
		pre()
	}
}
`

func TestDominance(t *testing.T) {
	_, u, cfg := parseUnit(t, domSrc, "guarded")
	preB := cfg.BlockOf(findCall(t, u.Body, "pre"))
	inB := cfg.BlockOf(findCall(t, u.Body, "inBranch"))
	postB := cfg.BlockOf(findCall(t, u.Body, "post"))
	if preB == nil || inB == nil || postB == nil {
		t.Fatal("calls not mapped to blocks")
	}
	if !cfg.Dominates(preB, inB) || !cfg.Dominates(preB, postB) {
		t.Error("pre() should dominate both inBranch() and post()")
	}
	if cfg.Dominates(inB, postB) {
		t.Error("inBranch() is conditional; must not dominate post()")
	}
}

func TestLoopLatchDominance(t *testing.T) {
	_, u, cfg := parseUnit(t, domSrc, "loop")
	var forStmt *ast.ForStmt
	ast.Inspect(u.Body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok && forStmt == nil {
			forStmt = f
		}
		return true
	})
	loop := cfg.LoopOf(forStmt)
	if loop == nil {
		t.Fatal("loop not registered")
	}
	preB := cfg.BlockOf(findCall(t, u.Body, "pre"))
	inB := cfg.BlockOf(findCall(t, u.Body, "inBranch"))
	if !cfg.Dominates(preB, loop.Latch) {
		t.Error("unconditional body stmt must dominate the latch")
	}
	if cfg.Dominates(inB, loop.Latch) {
		t.Error("stmt after continue-guard must NOT dominate the latch")
	}
	if !cfg.Dominates(loop.Head, loop.Latch) || !cfg.Dominates(loop.Head, loop.Exit) {
		t.Error("head must dominate latch and exit")
	}
}

func TestSelectPollDominatesLatch(t *testing.T) {
	_, u, cfg := parseUnit(t, domSrc, "whileTrue")
	var forStmt *ast.ForStmt
	ast.Inspect(u.Body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok && forStmt == nil {
			forStmt = f
		}
		return true
	})
	loop := cfg.LoopOf(forStmt)
	if loop == nil {
		t.Fatal("loop not registered")
	}
	var sel *ast.SelectStmt
	ast.Inspect(u.Body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectStmt); ok {
			sel = s
		}
		return true
	})
	selB := cfg.BlockOf(sel)
	if selB == nil {
		t.Fatal("select head not mapped")
	}
	if !cfg.Dominates(selB, loop.Latch) {
		t.Error("select head at loop top must dominate the latch")
	}
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
	pass, u, _ := parseUnit(t, taintSrc, "flows")
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
