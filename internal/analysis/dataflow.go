package analysis

import (
	"go/ast"
	"go/types"
)

// dataflow.go: the flow-insensitive taint closure detmerge (clock values)
// and aliasguard (shared store values) use to follow a value from the
// expression that produces it to the places it is written or returned.

// taintSpec configures TaintedVars: seed marks root expressions that
// introduce taint (a time.Now() call, a Cache.Get call); carrier extends
// propagation to extra expression shapes beyond the built-in ones.
type taintSpec struct {
	seed    func(e ast.Expr) bool
	carrier func(e ast.Expr, tainted func(ast.Expr) bool) bool
}

// taintedVars computes, flow-insensitively, the local variables of one
// function unit whose value may derive from a seed expression. The closure
// follows single- and multi-assignments, short declarations, compound
// assignments and range bindings; an expression carries taint when it is a
// seed, an identifier of a tainted variable, or built from a carrying
// expression through parens, type assertions, conversions, unary/binary
// arithmetic, indexing, slicing or field selection.
func taintedVars(pass *Pass, u funcUnit, spec taintSpec) map[*types.Var]bool {
	tainted := map[*types.Var]bool{}
	var carries func(e ast.Expr) bool
	carries = func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		if spec.seed(e) {
			return true
		}
		if spec.carrier != nil && spec.carrier(e, carries) {
			return true
		}
		switch e := e.(type) {
		case *ast.Ident:
			v, ok := pass.Info.Uses[e].(*types.Var)
			return ok && tainted[v]
		case *ast.ParenExpr:
			return carries(e.X)
		case *ast.TypeAssertExpr:
			return carries(e.X)
		case *ast.UnaryExpr:
			return carries(e.X)
		case *ast.StarExpr:
			return carries(e.X)
		case *ast.BinaryExpr:
			return carries(e.X) || carries(e.Y)
		case *ast.IndexExpr:
			return carries(e.X)
		case *ast.SliceExpr:
			return carries(e.X)
		case *ast.SelectorExpr:
			return carries(e.X)
		case *ast.CallExpr:
			if isTypeConversion(pass, e) && len(e.Args) == 1 {
				return carries(e.Args[0])
			}
			return false
		}
		return false
	}
	mark := func(id *ast.Ident) bool {
		var v *types.Var
		if d, ok := pass.Info.Defs[id].(*types.Var); ok {
			v = d
		} else if uv, ok := pass.Info.Uses[id].(*types.Var); ok {
			v = uv
		}
		if v == nil || tainted[v] {
			return false
		}
		tainted[v] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(u.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						rhs = n.Rhs[0]
					}
					if carries(rhs) {
						if mark(id) {
							changed = true
						}
					}
				}
			case *ast.DeclStmt:
				if gd, ok := n.Decl.(*ast.GenDecl); ok {
					for _, spec2 := range gd.Specs {
						vs, ok := spec2.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for i, name := range vs.Names {
							var rhs ast.Expr
							if len(vs.Values) == len(vs.Names) {
								rhs = vs.Values[i]
							} else if len(vs.Values) == 1 {
								rhs = vs.Values[0]
							}
							if carries(rhs) {
								if mark(name) {
									changed = true
								}
							}
						}
					}
				}
			case *ast.RangeStmt:
				if carries(n.X) {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok && e != nil {
							if mark(id) {
								changed = true
							}
						}
					}
				}
			}
			return true
		})
	}
	return tainted
}
