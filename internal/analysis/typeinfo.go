package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// typeinfo.go: object-resolution helpers shared by the analyzers. Every
// symbol question is answered through go/types objects — never through
// identifier spelling — so aliased imports (import f "fmt"), dot imports
// and local shadowing resolve exactly as the compiler sees them. This is
// what closed the ROADMAP hole where `import f "fmt"; f.Errorf(...)`
// escaped errwrap's selector-name matching.

// calleeOf resolves the function or method object a call invokes: a plain
// identifier (local function, or a dot-imported one), or a selector
// (package-qualified function or a method). Indirect calls through
// function-typed values resolve to nil.
func calleeOf(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name
// (receiver-less; methods never match).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// pkgLevelFuncOf returns the path of the package whose level-0 function fn
// is ("" for methods, locals and nil).
func pkgLevelFuncOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return ""
	}
	return fn.Pkg().Path()
}

// methodKeyOf names a method object the way the registries spell it:
// "internal/store.Cache.Get" (pointer receivers unwrapped, module prefix
// trimmed). "" for non-methods.
func methodKeyOf(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return trimToInternal(obj.Pkg().Path()) + "." + obj.Name() + "." + fn.Name()
}

// namedTypeKey returns "internal/store.Cache"-style registry key for a
// named type (pointers unwrapped), or "".
func namedTypeKey(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return trimToInternal(obj.Pkg().Path()) + "." + obj.Name()
}

// isTypeConversion reports whether the call expression is a conversion
// (the Fun position names a type, not a function).
func isTypeConversion(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// errorInterface is the universe error interface, resolved once.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t implements the universe error
// interface.
func implementsError(t types.Type) bool {
	return t != nil && types.Implements(t, errorInterface)
}

// isTestFile reports whether the node is positioned in a _test.go file.
func isTestFile(pass *Pass, n ast.Node) bool {
	return strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go")
}

// funcUnit is one analyzable body: a declared function or a function
// literal. Literals are separate units because their bodies execute on
// their own control paths (often on another goroutine), so the taint
// closure never crosses a FuncLit boundary.
type funcUnit struct {
	Name string         // declared name, or "<enclosing>.func" for literals
	Decl *ast.FuncDecl  // nil for literals
	Lit  *ast.FuncLit   // nil for declarations
	Body *ast.BlockStmt // never nil
}

// funcUnits yields every function unit in the file: each FuncDecl with a
// body, plus every FuncLit anywhere in the file (including inside other
// literals), each exactly once.
func funcUnits(file *ast.File) []funcUnit {
	var units []funcUnit
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		units = append(units, funcUnit{Name: fd.Name.Name, Decl: fd, Body: fd.Body})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				units = append(units, funcUnit{Name: fd.Name.Name + ".func", Lit: lit, Body: lit.Body})
			}
			return true
		})
	}
	return units
}

// walkUnit inspects the unit's body without descending into nested
// function literals (each is its own unit).
func walkUnit(u funcUnit, fn func(ast.Node) bool) {
	ast.Inspect(u.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != u.Lit {
			return false
		}
		return fn(n)
	})
}
