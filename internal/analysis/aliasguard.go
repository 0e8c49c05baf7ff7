package analysis

import (
	"go/ast"
	"go/types"
)

// aliasReturns are the accessors whose results alias shared immutable
// state: cached whole-program results, snapshot document maps, canonical
// collections and shard partitions. The store hands these out by
// reference — "callers must treat it as read-only" — and the engine layer
// owns cloning. A write through one of these aliases corrupts every other
// holder, including cached results served to future queries. Same
// registry style as gosafe's table.
var aliasReturns = map[string]bool{
	"internal/store.Cache.Get":         true,
	"internal/store.Snapshot.Doc":      true,
	"internal/store.Doc.Collection":    true,
	"internal/store.Doc.Shards":        true,
	"internal/store.DocStore.Snapshot": true,
	// Doc.Stats memoizes one inventory per document and hands the same
	// pointer (and its attribute maps) to every caller — the /v2/schema
	// handler must render it without writing through it.
	"internal/store.Doc.Stats": true,
	// PlanCache.Get hands out one cached *Plan to every concurrent search
	// over the same (pattern shape, graph, options): the feasible-mate
	// lists and order are shared, searchers copy what they mutate.
	"internal/match.PlanCache.Get": true,
	// Pattern.Halves hands out the motif adjacency Compile built once per
	// pattern; every worker matching that pattern reads the same slices.
	"internal/pattern.Pattern.Halves": true,
	// Doc.MemberIndex hands out the §4 index the store built for a large
	// member; every pool worker matching that member reads the same label
	// index, interner and profiles.
	"internal/store.Doc.MemberIndex": true,
}

// AliasGuard flags mutations of values obtained from the registered
// deep-clone-contract accessors (aliasReturns). Taint follows
// assignments, type assertions, conversions, indexing and field
// selection; calling a method on the value launders it — Clone() and
// toResult() are exactly the sanctioned copy-out points. Flagged writes:
// field stores, element stores, append, delete, clear, inc/dec through a
// tainted base.
var AliasGuard = &Analyzer{
	Name: "aliasguard",
	Doc:  "values returned from store cache/snapshot accessors must not be mutated",
	Run:  runAliasGuard,
}

func runAliasGuard(pass *Pass) {
	// The defining package manages its own representation (builders fill
	// collections before they freeze); the contract binds everyone else.
	if pathHasSuffix(pass.Path, "internal/store") {
		return
	}
	for _, file := range pass.Files {
		for _, u := range funcUnits(file) {
			checkAliasUnit(pass, u)
		}
	}
}

func checkAliasUnit(pass *Pass, u funcUnit) {
	seed := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		return aliasReturns[methodKeyOf(calleeOf(pass, call))]
	}
	tainted := taintedVars(pass, u, taintSpec{seed: seed})
	carries := func(e ast.Expr) bool {
		return aliasBaseCarries(pass, e, tainted, seed)
	}
	report := func(n ast.Node, op string) {
		pass.Reportf(n.Pos(), "%s through alias of a shared store value in %s; Cache.Get/Snapshot.Doc/Doc.Collection results are read-only — clone before mutating", op, u.Name)
	}
	walkUnit(u, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch target := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					if carries(target.X) {
						report(n, "field write")
					}
				case *ast.IndexExpr:
					if carries(target.X) {
						report(n, "element write")
					}
				case *ast.StarExpr:
					if carries(target.X) {
						report(n, "pointer write")
					}
				}
			}
		case *ast.IncDecStmt:
			switch target := ast.Unparen(n.X).(type) {
			case *ast.SelectorExpr:
				if carries(target.X) {
					report(n, "field write")
				}
			case *ast.IndexExpr:
				if carries(target.X) {
					report(n, "element write")
				}
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok || len(n.Args) == 0 {
				return true
			}
			switch id.Name {
			case "append", "delete", "clear":
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				if carries(n.Args[0]) {
					report(n, id.Name)
				}
			}
		}
		return true
	})
}

// aliasBaseCarries reports whether the written-through base expression
// aliases a registered shared value: a tainted variable, a direct
// registry-call result, or a selector/index/assert chain over one. A
// method call in the chain breaks the alias (the sanctioned copy-out).
func aliasBaseCarries(pass *Pass, e ast.Expr, tainted map[*types.Var]bool, seed func(ast.Expr) bool) bool {
	e = ast.Unparen(e)
	if seed(e) {
		return true
	}
	switch e := e.(type) {
	case *ast.Ident:
		v, ok := pass.Info.Uses[e].(*types.Var)
		return ok && tainted[v]
	case *ast.SelectorExpr:
		return aliasBaseCarries(pass, e.X, tainted, seed)
	case *ast.IndexExpr:
		return aliasBaseCarries(pass, e.X, tainted, seed)
	case *ast.SliceExpr:
		return aliasBaseCarries(pass, e.X, tainted, seed)
	case *ast.TypeAssertExpr:
		return aliasBaseCarries(pass, e.X, tainted, seed)
	case *ast.StarExpr:
		return aliasBaseCarries(pass, e.X, tainted, seed)
	case *ast.CallExpr:
		if isTypeConversion(pass, e) && len(e.Args) == 1 {
			return aliasBaseCarries(pass, e.Args[0], tainted, seed)
		}
		return false
	}
	return false
}
