package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mergePkgs are the coordinator/merge/serialization layers where iteration
// order becomes output order: a range over a map there injects Go's
// randomized map order straight into results the determinism contract
// (coordinator slot merge, canonical collection order, wire encoding)
// promises to be stable.
var mergePkgs = []string{
	"internal/store",
	"internal/exec",
	"internal/server",
	"internal/algebra",
	"internal/graph",
	"internal/sqlbase",
}

// timingExemptPkgs may read the clock and global randomness freely:
// observability and figure/report generation exist to measure wall time,
// the server owes HTTP deadlines, and this package times its own runs.
var timingExemptPkgs = []string{
	"internal/obs",
	"internal/stats",
	"internal/figures",
	"internal/gen",
	"internal/server",
	"internal/analysis",
}

// timingSinkMethods are repo methods that exist to swallow wall-clock
// values (they feed observability, never results).
var timingSinkMethods = map[string]bool{
	"internal/match.Stats.RecordOp": true,
}

// timingSinkTypes are types whose fields may be assigned clock-derived
// values: they are observability carriers, not result data.
var timingSinkTypes = map[string]bool{
	"internal/match.Stats": true,
	// The streaming return clause carries its operator start time across
	// chunk flushes; the value only ever feeds RecordOp and the span.
	"internal/exec.rowEmitter": true,
	// RemoteInfo carries per-RPC wall time and attempt counts for the
	// EXPLAIN shard table and the coordinator's shard-rpc spans; result
	// groups never read it.
	"internal/store.RemoteInfo": true,
	// ShardHealth timestamps each probe for /healthz; never result data.
	"internal/store.ShardHealth": true,
}

// randConstructors are the math/rand functions that build a seeded,
// deterministic generator — the sanctioned form (internal/gen's graph
// generators depend on rand.New(rand.NewSource(seed))). Everything else at
// package level draws from the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// DetMerge enforces the two determinism invariants the runtime's tests can
// only sample:
//
//  1. In merge/serialization packages, a `range` over a map must not
//     produce ordered output — appending to a slice (unless the slice is
//     sorted afterwards, the FromMap idiom), accumulating a string, or
//     sending on a channel inside the loop body all inherit the randomized
//     map order. Writing into another map or into index-addressed slots is
//     fine (order-insensitive).
//
//  2. In result-producing packages, wall-clock values (time.Now/Since/
//     Until and anything dataflow-derived from them) may only flow into
//     observability — internal/obs, internal/stats, registered sink
//     methods/types, and conditions — never into returns, appends, sends
//     or non-obs composites. Global math/rand draws are banned outright;
//     seeded generators (rand.New(rand.NewSource(n))) stay legal.
//
// _test.go files are exempt (tests time out and seed freely).
var DetMerge = &Analyzer{
	Name: "detmerge",
	Doc:  "no map-order or wall-clock/global-rand nondeterminism in merge and result paths",
	Run:  runDetMerge,
}

func runDetMerge(pass *Pass) {
	inMerge := pathHasAnySuffix(pass.Path, mergePkgs)
	inTiming := strings.Contains(pass.Path, "internal/") && !pathHasAnySuffix(pass.Path, timingExemptPkgs)
	if !inMerge && !inTiming {
		return
	}
	for _, file := range pass.Files {
		for _, u := range funcUnits(file) {
			if isTestFile(pass, u.Body) {
				continue
			}
			if inMerge {
				checkMapOrder(pass, u)
			}
			if inTiming {
				checkTiming(pass, u)
				checkGlobalRand(pass, u)
			}
		}
	}
}

// ---- rule 1: map iteration order must not become output order ----

func checkMapOrder(pass *Pass, u funcUnit) {
	walkUnit(u, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rs.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, u, rs)
		return true
	})
}

func checkMapRangeBody(pass *Pass, u funcUnit, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "send inside range over map in %s leaks randomized map order into channel order; collect and sort first", u.Name)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
					continue
				}
				if i >= len(n.Lhs) {
					continue
				}
				target, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := pass.Info.Uses[target].(*types.Var)
				if !ok {
					if v, ok = pass.Info.Defs[target].(*types.Var); !ok {
						continue
					}
				}
				if !sortedAfter(pass, u, rs, v) {
					pass.Reportf(n.Pos(), "append inside range over map in %s inherits randomized map order; sort %s after the loop or iterate sorted keys", u.Name, target.Name)
				}
			}
			if n.Tok == token.ADD_ASSIGN {
				if tv, ok := pass.Info.Types[n.Lhs[0]]; ok && tv.Type != nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Reportf(n.Pos(), "string accumulation inside range over map in %s inherits randomized map order; sort keys first", u.Name)
					}
				}
			}
		}
		return true
	})
}

// sortedAfter reports whether the unit sorts v (sort.* or slices.Sort*
// call mentioning v) anywhere after the range loop — the canonical
// collect-then-sort idiom of store.FromMap and Snapshot.Docs.
func sortedAfter(pass *Pass, u funcUnit, rs *ast.RangeStmt, v *types.Var) bool {
	sorted := false
	ast.Inspect(u.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := calleeOf(pass, call)
		path := pkgLevelFuncOf(fn)
		if path != "sort" && path != "slices" {
			return true
		}
		if path == "slices" && !strings.HasPrefix(fn.Name(), "Sort") {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if uv, ok := pass.Info.Uses[id].(*types.Var); ok && uv == v {
						mentions = true
					}
				}
				return !mentions
			})
			if mentions {
				sorted = true
				break
			}
		}
		return true
	})
	return sorted
}

// ---- rule 2: wall-clock values stay inside observability ----

func checkTiming(pass *Pass, u funcUnit) {
	isClockCall := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := calleeOf(pass, call)
		return isPkgFunc(fn, "time", "Now") || isPkgFunc(fn, "time", "Since") || isPkgFunc(fn, "time", "Until")
	}
	tainted := taintedVars(pass, u, taintSpec{
		seed: isClockCall,
		// Method calls on clock-derived values (d.Seconds(), t.Unix())
		// stay clock-derived.
		carrier: func(e ast.Expr, carries func(ast.Expr) bool) bool {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return false
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			return ok && carries(sel.X)
		},
	})
	carries := func(e ast.Expr) bool {
		return exprCarriesClock(pass, e, tainted, isClockCall)
	}
	report := func(n ast.Node, what string) {
		pass.Reportf(n.Pos(), "wall-clock-derived value %s in %s; clock values may only feed internal/obs, stats sinks and conditions — results must be deterministic", what, u.Name)
	}
	walkUnit(u, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if carries(res) {
					report(res, "escapes via return")
				}
			}
		case *ast.SendStmt:
			if carries(n.Value) {
				report(n, "escapes via channel send")
			}
		case *ast.CompositeLit:
			if timingSinkComposite(pass, n) {
				return true
			}
			for _, el := range n.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if carries(e) {
					report(e, "stored in a non-observability composite")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				switch target := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					// Local propagation, handled by the taint closure.
				case *ast.SelectorExpr, *ast.IndexExpr:
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						rhs = n.Rhs[0]
					}
					if rhs == nil || !carries(rhs) {
						continue
					}
					if sel, ok := target.(*ast.SelectorExpr); ok && timingSinkBase(pass, sel.X) {
						continue
					}
					report(n, "stored into a non-sink field or element")
				}
			}
		case *ast.CallExpr:
			fn := calleeOf(pass, n)
			if fn != nil {
				if isPkgFunc(fn, "time", "Since") || isPkgFunc(fn, "time", "Until") {
					return true // measuring against a start time is the idiom
				}
				if timingSinkCallee(fn) {
					return true
				}
			} else {
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
					for _, arg := range n.Args {
						if carries(arg) {
							report(arg, "appended to a result slice")
						}
					}
				}
				return true // conversions, builtins, indirect calls
			}
			for _, arg := range n.Args {
				if carries(arg) {
					report(arg, "passed to a non-observability callee")
				}
			}
		}
		return true
	})
}

// exprCarriesClock extends the variable taint set to expressions at the
// escape site (wall >= x is a condition, not an escape; but `return wall`
// and `return int64(wall)` both carry).
func exprCarriesClock(pass *Pass, e ast.Expr, tainted map[*types.Var]bool, isClockCall func(ast.Expr) bool) bool {
	carries := false
	ast.Inspect(e, func(n ast.Node) bool {
		if carries {
			return false
		}
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CompositeLit:
			// Composites are checked (and reported) by their own case —
			// returning one is not a second escape.
			return false
		}
		if ex, ok := n.(ast.Expr); ok && isClockCall(ex) {
			carries = true
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := pass.Info.Uses[id].(*types.Var); ok && tainted[v] {
				carries = true
				return false
			}
		}
		return true
	})
	return carries
}

// timingSinkCallee reports whether calling fn is a sanctioned destination
// for clock values: anything in internal/obs or internal/stats, or a
// registered sink method.
func timingSinkCallee(fn *types.Func) bool {
	if fn.Pkg() != nil {
		p := fn.Pkg().Path()
		if pathHasSuffix(p, "internal/obs") || pathHasSuffix(p, "internal/stats") {
			return true
		}
	}
	key := methodKeyOf(fn)
	if timingSinkMethods[key] {
		return true
	}
	return strings.HasPrefix(key, "internal/obs.") || strings.HasPrefix(key, "internal/stats.")
}

// timingSinkComposite reports whether the composite literal builds an
// observability value (obs.SlowQueryRecord{Wall: wall} is the idiom).
func timingSinkComposite(pass *Pass, lit *ast.CompositeLit) bool {
	tv, ok := pass.Info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	key := namedTypeKey(tv.Type)
	if timingSinkTypes[key] {
		return true
	}
	return strings.HasPrefix(key, "internal/obs.") || strings.HasPrefix(key, "internal/stats.")
}

// timingSinkBase reports whether the assignment base is a registered sink
// type (s.stats.RetrieveTime = time.Since(start) writes into match.Stats).
func timingSinkBase(pass *Pass, base ast.Expr) bool {
	tv, ok := pass.Info.Types[base]
	if !ok || tv.Type == nil {
		return false
	}
	key := namedTypeKey(tv.Type)
	if timingSinkTypes[key] {
		return true
	}
	return strings.HasPrefix(key, "internal/obs.") || strings.HasPrefix(key, "internal/stats.")
}

// ---- rule 2b: no global math/rand draws ----

func checkGlobalRand(pass *Pass, u funcUnit) {
	walkUnit(u, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(pass, call)
		path := pkgLevelFuncOf(fn)
		if path != "math/rand" && path != "math/rand/v2" {
			return true
		}
		if randConstructors[fn.Name()] {
			return true
		}
		pass.Reportf(call.Pos(), "global %s.%s in %s draws from the process-wide source; results must be deterministic — use rand.New(rand.NewSource(seed))", path, fn.Name(), u.Name)
		return true
	})
}
