package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// recboundPkgs are the packages whose recursion runs over user-supplied
// graphs and grammars: unbounded depth there is a stack overflow (or an
// unbounded query) triggered by data, not by code.
var recboundPkgs = []string{
	"internal/match",
	"internal/motif",
}

// boundWords are identifier fragments recognised as depth/budget carriers
// or cancellation/visited-set state. Matching is case-insensitive on
// substrings, so maxDepth, RefineLevel-style limits, s.done and visited[]
// all qualify — but only in the dataflow positions checked below, not
// anywhere in the function.
var boundWords = []string{
	"depth", "budget", "limit", "fuel", "remaining",
	"cancel", "done", "visited", "stop", "ctx", "deadline", "step",
}

// RecBound requires every (directly or mutually) recursive function in
// match/motif to show a termination bound on every recursion path.
// Evidence is per recursive call site:
//
//   - Rule A: the call itself modifies a bound-word value on the way down
//     (depth-1, budget/2, min(d, limit)) — a compound argument mentioning a
//     bound word. A bare identifier passed through unchanged is not
//     evidence.
//
//   - Rule B: a condition mentioning a bound word *dominates* the call —
//     every path from the function entry to the recursion passes through
//     the check. A bound check on a sibling branch, or after the call,
//     gates nothing; the lexical predecessor of this rule accepted any
//     bound word anywhere in any condition, which is the ROADMAP hole this
//     closes.
var RecBound = &Analyzer{
	Name: "recbound",
	Doc:  "recursive functions in match/motif must decrement a depth/budget argument or check a limit/cancellation/visited bound on a path dominating each recursive call",
	Run:  runRecBound,
}

func runRecBound(pass *Pass) {
	if !pathHasAnySuffix(pass.Path, recboundPkgs) {
		return
	}
	g := newCallGraph(pass)
	for fn, fd := range g.decls {
		if !g.reaches(fn, fn) {
			continue
		}
		if hasUnboundedSite(pass, fd, fn, g) {
			pass.Reportf(fd.Pos(), "recursive function %s has a recursion path with no visible depth/budget/cancellation bound; decrement a depth or budget argument when recursing, or check a limit/cancellation/visited bound on a path dominating the recursive call", fn.Name())
		}
	}
}

// boundCond is one condition position mentioning a bound word: the block
// it terminates plus the checked node (expression, or select comm stmt).
type boundCond struct {
	blk  *Block
	node ast.Node
}

// hasUnboundedSite reports whether any recursive call site in fd (its body
// or any nested function literal) lacks both evidence rules.
func hasUnboundedSite(pass *Pass, fd *ast.FuncDecl, fn *types.Func, g *callGraph) bool {
	for _, u := range declUnits(fd) {
		cfg := NewCFG(u.Body)
		var bounds []boundCond
		for _, blk := range cfg.Blocks {
			for _, c := range blk.Conds {
				var node ast.Node
				if c.Expr != nil {
					node = c.Expr
				} else if c.Comm != nil {
					node = c.Comm
				}
				if node != nil && nodeMentionsBound(node) {
					bounds = append(bounds, boundCond{blk: blk, node: node})
				}
			}
		}
		unbounded := false
		ast.Inspect(u.Body, func(n ast.Node) bool {
			if unbounded {
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(u.Lit) {
				return false // separate unit
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// A recursive site: a local callee that can reach fn again.
			callee := calleeOf(pass, call)
			if !g.local(callee) || (callee != fn && !g.reaches(callee, fn)) {
				return true
			}
			if !siteHasEvidence(cfg, bounds, call) {
				unbounded = true
			}
			return true
		})
		if unbounded {
			return true
		}
	}
	return false
}

// siteHasEvidence applies Rule A (bound modified at the call) and Rule B
// (bound check dominating the call) to one recursive call site.
func siteHasEvidence(cfg *CFG, bounds []boundCond, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if !isPassThrough(arg) && exprMentionsBound(arg) {
			return true // Rule A
		}
	}
	blk := cfg.BlockOf(call)
	if blk == nil {
		// Not mapped (call inside a nested literal handled by its own
		// unit); no verdict from this unit.
		return true
	}
	for _, bc := range bounds {
		if bc.blk == blk {
			// Conditions terminate their block, so a same-block check runs
			// after the call — unless the call sits inside the condition
			// itself (`if depth > 0 && rec(d)`), where short-circuiting
			// makes the check the gate.
			if containsNode(bc.node, call) {
				return true
			}
			continue
		}
		if cfg.Dominates(bc.blk, blk) {
			return true // Rule B
		}
	}
	return false
}

// isPassThrough reports whether the argument is an unmodified name — a
// bare identifier or selector chain — carrying no evidence that a bound is
// consumed.
func isPassThrough(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return isPassThrough(e.X)
	case *ast.ParenExpr:
		return isPassThrough(e.X)
	}
	return false
}

// exprMentionsBound reports whether any identifier inside e contains a
// bound word.
func exprMentionsBound(e ast.Expr) bool {
	if e == nil {
		return false
	}
	return nodeMentionsBound(e)
}

// nodeMentionsBound reports whether any identifier under n contains a
// bound word.
func nodeMentionsBound(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && isBoundWord(id.Name) {
			found = true
		}
		return !found
	})
	return found
}

// isBoundWord reports whether the identifier contains a bound fragment.
func isBoundWord(name string) bool {
	lower := strings.ToLower(name)
	for _, w := range boundWords {
		if strings.Contains(lower, w) {
			return true
		}
	}
	return false
}
