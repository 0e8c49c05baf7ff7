package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxPollPkgs are the packages whose loops run query-sized work: the
// backtracking matcher, the algebra operators and the worker pool. A loop
// there that can iterate unboundedly and never observes cancellation keeps
// burning CPU after the client hung up — the admission-controlled server
// then drains slots it can never reclaim.
var ctxPollPkgs = []string{
	"internal/match",
	"internal/algebra",
	"internal/pool",
	// The store runs the remote selector's retry loop, which iterates
	// per-shard work that must die with the query's context.
	"internal/store",
}

// ctxPollFuncs are repo functions that ARE a cancellation poll: calling
// one on a dominating path satisfies the analyzer. Keys are methodKeyOf /
// funcKey spellings.
var ctxPollFuncs = map[string]bool{
	// searcher.cancelled selects on the context's Done channel and counts
	// the check; it is the matcher's canonical per-step poll.
	"internal/match.searcher.cancelled": true,
}

// CtxPoll requires every unbounded-shape loop in match/algebra/pool to
// poll cancellation on a path that dominates the loop's latch — i.e. on
// every iteration, not just on some branch. A loop has unbounded shape
// when it is `for {}`, a while-style `for cond {}`, or any loop whose body
// calls into local recursion (data-sized depth). Polls are recognised
// structurally, never by name:
//
//   - ctx.Err() on a context.Context value
//   - a receive (direct or in a select) from ctx.Done() or from any operand
//     whose underlying type is chan struct{} / <-chan struct{} — which
//     covers every variable or named type holding a ctx.Done() result,
//     since Done returns <-chan struct{}
//   - a call to a registered poll helper (ctxPollFuncs)
//   - delegation: passing a context.Context to a callee, which then owns
//     the polling obligation
//
// Bounded 3-clause and range loops without recursive calls are exempt, as
// are _test.go files (tests run under the harness deadline).
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "unbounded loops in match/algebra/pool must poll ctx.Err()/ctx.Done() on a dominating path",
	Run:  runCtxPoll,
}

func runCtxPoll(pass *Pass) {
	if !pathHasAnySuffix(pass.Path, ctxPollPkgs) {
		return
	}
	g := newCallGraph(pass)
	for _, file := range pass.Files {
		for _, u := range funcUnits(file) {
			if isTestFile(pass, u.Body) {
				continue
			}
			checkUnitLoops(pass, u, g)
		}
	}
}

func checkUnitLoops(pass *Pass, u funcUnit, g *callGraph) {
	cfg := NewCFG(u.Body)
	polls := collectPolls(pass, cfg, u)
	walkUnit(u, func(n ast.Node) bool {
		var loopStmt ast.Stmt
		switch s := n.(type) {
		case *ast.ForStmt:
			loopStmt = s
		case *ast.RangeStmt:
			loopStmt = s
		default:
			return true
		}
		loop := cfg.LoopOf(loopStmt)
		if loop == nil {
			return true
		}
		if !unboundedShape(pass, loopStmt, g) {
			return true
		}
		for _, blk := range polls {
			// In-loop (head dominates it) and on every iteration
			// (dominates the latch).
			if cfg.Dominates(loop.Head, blk) && cfg.Dominates(blk, loop.Latch) {
				return true
			}
		}
		pass.Reportf(loopStmt.Pos(), "unbounded loop in %s never polls cancellation; check ctx.Err(), select on ctx.Done(), or call a registered poll helper on a path reaching every iteration", u.Name)
		return true
	})
}

// walkUnit inspects the unit's body without descending into nested
// function literals (each is its own unit) or defer bodies' literals.
func walkUnit(u funcUnit, fn func(ast.Node) bool) {
	ast.Inspect(u.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != u.Lit {
			return false
		}
		return fn(n)
	})
}

// unboundedShape reports whether the loop can iterate an unbounded number
// of times: `for {}`, while-style `for cond {}`, or a body that reenters
// local recursion.
func unboundedShape(pass *Pass, loopStmt ast.Stmt, g *callGraph) bool {
	if fs, ok := loopStmt.(*ast.ForStmt); ok {
		if fs.Cond == nil {
			return true
		}
		if fs.Init == nil && fs.Post == nil {
			return true
		}
	}
	var body *ast.BlockStmt
	switch s := loopStmt.(type) {
	case *ast.ForStmt:
		body = s.Body
	case *ast.RangeStmt:
		body = s.Body
	}
	carrying := false
	ast.Inspect(body, func(n ast.Node) bool {
		if carrying {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := calleeOf(pass, call); g.local(callee) && g.reaches(callee, callee) {
			carrying = true
		}
		return true
	})
	return carrying
}

// collectPolls returns the blocks of every cancellation-poll node in the
// unit. Polls inside defer bodies don't count — deferred code runs at
// function exit, not per iteration.
func collectPolls(pass *Pass, cfg *CFG, u funcUnit) []*Block {
	isPollRecv := func(x ast.Expr) bool {
		x = ast.Unparen(x)
		if call, ok := x.(*ast.CallExpr); ok {
			return methodKeyOf(calleeOf(pass, call)) == "context.Context.Done"
		}
		if tv, ok := pass.Info.Types[x]; ok && tv.Type != nil {
			if ch, ok := tv.Type.Underlying().(*types.Chan); ok {
				if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
					return true
				}
			}
		}
		return false
	}
	var polls []*Block
	add := func(n ast.Node) {
		if blk := cfg.BlockOf(n); blk != nil {
			polls = append(polls, blk)
		}
	}
	ast.Inspect(u.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != u.Lit {
				return false
			}
		case *ast.DeferStmt:
			return false
		case *ast.SelectStmt:
			// Comm expressions are all evaluated when the select runs, so
			// a polling receive in any clause polls at the select head —
			// even when another clause (default) is taken.
			for _, clause := range n.Body.List {
				cc := clause.(*ast.CommClause)
				if cc.Comm == nil {
					continue
				}
				polled := false
				ast.Inspect(cc.Comm, func(m ast.Node) bool {
					if ue, ok := m.(*ast.UnaryExpr); ok && ue.Op == token.ARROW && isPollRecv(ue.X) {
						polled = true
					}
					return !polled
				})
				if polled {
					add(n)
					break
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isPollRecv(n.X) {
				add(n)
			}
		case *ast.CallExpr:
			fn := calleeOf(pass, n)
			if fn != nil {
				key := methodKeyOf(fn)
				if key == "context.Context.Err" || ctxPollFuncs[key] ||
					(pkgLevelFuncOf(fn) != "" && ctxPollFuncs[trimToInternal(pkgLevelFuncOf(fn))+"."+fn.Name()]) {
					add(n)
					return true
				}
			}
			// Delegation: handing the context to a callee transfers the
			// polling obligation.
			for _, arg := range n.Args {
				if tv, ok := pass.Info.Types[arg]; ok && isContextType(tv.Type) {
					add(n)
					return true
				}
			}
		}
		return true
	})
	return polls
}
