package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// dataflow.go: the intra-function dataflow layer. Two analyzers need
// control flow — recbound (a bound check dominating each recursive call)
// and ctxpoll (a poll dominating each loop latch) — so this file turns one
// function body into basic blocks connected by control edges and computes
// dominators over them. detmerge and aliasguard need only the
// flow-insensitive taint closure at the bottom. The CFG model is
// deliberately small:
//
//   - FuncLit bodies are excluded — a literal is its own funcUnit with its
//     own CFG, because its body runs on its own control paths (often on
//     another goroutine).
//   - panic and os.Exit fall through like ordinary calls. That
//     over-approximates the path set, which only makes dominance harder to
//     establish — the conservative direction for every current client.
//   - goto adds an edge to the synthetic exit block; the tree has no gotos.

// Cond is one condition evaluated at the end of a block: the guarding
// expression of a branch, the tag or case list of a switch, the operand of
// a range, or the communication of a select clause (Expr nil, Comm set).
type Cond struct {
	Expr ast.Expr // nil for a select clause
	Comm ast.Stmt // the select communication statement, select clauses only
}

// Block is one basic block: simple statements in execution order, then the
// conditions that choose among successors.
type Block struct {
	Index int
	Stmts []ast.Stmt
	Conds []Cond
	Succs []*Block
	Preds []*Block
}

// Loop is the CFG shape of one for/range statement. Head evaluates the
// condition (or range operand) once per iteration; Latch is the unique
// block every continuing iteration passes through on its way back to Head
// (the post statement lives there); Exit is where break and a false
// condition land. A statement that must run every iteration is exactly a
// statement whose block dominates Latch.
type Loop struct {
	Head  *Block
	Latch *Block
	Exit  *Block
}

// CFG is the control-flow graph of one function unit.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block

	loops     map[ast.Stmt]*Loop
	nodeBlock map[ast.Node]*Block

	dom [][]bool // dom[i][j]: block j dominates block i; lazily built
}

// NewCFG builds the control-flow graph of one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	c := &CFG{
		loops:     map[ast.Stmt]*Loop{},
		nodeBlock: map[ast.Node]*Block{},
	}
	b := &cfgBuilder{cfg: c}
	c.Entry = b.newBlock()
	c.Exit = b.newBlock()
	b.cur = c.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, c.Exit)
	}
	c.index()
	return c
}

// LoopOf returns the loop shape of a for/range statement, or nil.
func (c *CFG) LoopOf(s ast.Stmt) *Loop { return c.loops[s] }

// BlockOf returns the basic block that evaluates n (a simple statement, a
// condition expression, or anything nested inside one — FuncLit interiors
// excluded), or nil for nodes outside this unit.
func (c *CFG) BlockOf(n ast.Node) *Block { return c.nodeBlock[n] }

// Dominates reports whether every path from the entry to b passes through
// a. Unreachable blocks are treated as dominated by everything (dead code
// never defeats an invariant).
func (c *CFG) Dominates(a, b *Block) bool {
	if a == nil || b == nil {
		return false
	}
	if c.dom == nil {
		c.computeDominators()
	}
	return c.dom[b.Index][a.Index]
}

// index assigns block indices and fills the node→block map.
func (c *CFG) index() {
	for i, blk := range c.Blocks {
		blk.Index = i
		for _, s := range blk.Stmts {
			mapNodes(c.nodeBlock, s, blk)
		}
		for _, cond := range blk.Conds {
			if cond.Expr != nil {
				mapNodes(c.nodeBlock, cond.Expr, blk)
			}
		}
	}
}

// mapNodes records every node under root (FuncLit interiors excluded) as
// belonging to blk. Control statements are recorded shallowly by the
// builder, so root here is always a simple statement or an expression.
func mapNodes(m map[ast.Node]*Block, root ast.Node, blk *Block) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			m[lit] = blk // the literal value is made here; its body is not
			return false
		}
		m[n] = blk
		return true
	})
}

// computeDominators runs the classic iterative dataflow:
// dom(entry) = {entry}; dom(b) = {b} ∪ ⋂ dom(preds(b)).
func (c *CFG) computeDominators() {
	n := len(c.Blocks)
	reachable := make([]bool, n)
	var mark func(b *Block)
	mark = func(b *Block) {
		if reachable[b.Index] {
			return
		}
		reachable[b.Index] = true
		for _, s := range b.Succs {
			mark(s)
		}
	}
	mark(c.Entry)

	dom := make([][]bool, n)
	for i := range dom {
		dom[i] = make([]bool, n)
		if !reachable[i] {
			// Unreachable: dominated by everything by convention.
			for j := range dom[i] {
				dom[i][j] = true
			}
			continue
		}
		if i == c.Entry.Index {
			dom[i][i] = true
			continue
		}
		for j := range dom[i] {
			dom[i][j] = true // start from ⊤ and shrink
		}
	}
	changed := true
	for changed {
		changed = false
		for _, b := range c.Blocks {
			i := b.Index
			if !reachable[i] || i == c.Entry.Index {
				continue
			}
			next := make([]bool, n)
			first := true
			for _, p := range b.Preds {
				if !reachable[p.Index] {
					continue
				}
				if first {
					copy(next, dom[p.Index])
					first = false
					continue
				}
				for j := range next {
					next[j] = next[j] && dom[p.Index][j]
				}
			}
			if first {
				// Reachable only via unreachable preds cannot happen (mark
				// walks succ edges), but keep the entry-like default.
				next = make([]bool, n)
			}
			next[i] = true
			for j := range next {
				if next[j] != dom[i][j] {
					dom[i] = next
					changed = true
					break
				}
			}
		}
	}
	c.dom = dom
}

// cfgBuilder incrementally grows a CFG. cur is the block under
// construction; nil after a terminator (return/branch), in which case the
// next statement opens a fresh unreachable block so node mapping stays
// total.
type cfgBuilder struct {
	cfg *CFG
	cur *Block
	// break/continue targets, innermost last.
	breaks    []*Block
	continues []*Block
	// labeled loop targets by label name.
	labelBreak    map[string]*Block
	labelContinue map[string]*Block
	// pending label for the next loop/switch statement.
	pendingLabel string
	// fallthrough target inside a switch (next case body).
	fallthroughTo *Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// current returns the block under construction, opening an unreachable one
// after a terminator.
func (b *cfgBuilder) current() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.current().Stmts = append(b.current().Stmts, s.Init)
		}
		cond := b.current()
		cond.Conds = append(cond.Conds, Cond{Expr: s.Cond})
		b.cfg.nodeBlock[s] = cond
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmtList(s.Body.List)
		afterThen := b.cur
		var afterElse *Block
		hasElse := s.Else != nil
		if hasElse {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			afterElse = b.cur
		}
		join := b.newBlock()
		if afterThen != nil {
			b.edge(afterThen, join)
		}
		if hasElse {
			if afterElse != nil {
				b.edge(afterElse, join)
			}
		} else {
			b.edge(cond, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		if s.Init != nil {
			b.current().Stmts = append(b.current().Stmts, s.Init)
		}
		head := b.newBlock()
		b.edge(b.current(), head)
		if s.Cond != nil {
			head.Conds = append(head.Conds, Cond{Expr: s.Cond})
		}
		body := b.newBlock()
		latch := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, exit)
		}
		if s.Post != nil {
			latch.Stmts = append(latch.Stmts, s.Post)
		}
		b.edge(latch, head)
		b.cfg.nodeBlock[s] = head
		b.cfg.loops[s] = &Loop{Head: head, Latch: latch, Exit: exit}
		b.pushLoop(label, exit, latch)
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, latch)
		}
		b.popLoop(label)
		b.cur = exit

	case *ast.RangeStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		head := b.newBlock()
		b.edge(b.current(), head)
		head.Conds = append(head.Conds, Cond{Expr: s.X})
		body := b.newBlock()
		latch := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body)
		b.edge(head, exit)
		b.edge(latch, head)
		b.cfg.nodeBlock[s] = head
		if s.Key != nil {
			mapNodes(b.cfg.nodeBlock, s.Key, head)
		}
		if s.Value != nil {
			mapNodes(b.cfg.nodeBlock, s.Value, head)
		}
		b.cfg.loops[s] = &Loop{Head: head, Latch: latch, Exit: exit}
		b.pushLoop(label, exit, latch)
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, latch)
		}
		b.popLoop(label)
		b.cur = exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.current().Stmts = append(b.current().Stmts, s.Init)
		}
		head := b.current()
		if s.Tag != nil {
			head.Conds = append(head.Conds, Cond{Expr: s.Tag})
		}
		b.cfg.nodeBlock[s] = head
		b.switchBody(head, s.Body.List)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.current().Stmts = append(b.current().Stmts, s.Init)
		}
		head := b.current()
		head.Stmts = append(head.Stmts, s.Assign)
		b.cfg.nodeBlock[s] = head
		b.switchBody(head, s.Body.List)

	case *ast.SelectStmt:
		head := b.current()
		b.cfg.nodeBlock[s] = head
		join := b.newBlock()
		b.breaks = append(b.breaks, join)
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			blk.Conds = append(blk.Conds, Cond{Comm: cc.Comm})
			if cc.Comm != nil {
				blk.Stmts = append(blk.Stmts, cc.Comm)
			}
			b.cur = blk
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, join)
			}
		}
		if len(s.Body.List) == 0 {
			b.edge(head, join)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = join

	case *ast.BranchStmt:
		cur := b.current()
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if t := b.labelBreak[s.Label.Name]; t != nil {
					b.edge(cur, t)
				}
			} else if len(b.breaks) > 0 {
				b.edge(cur, b.breaks[len(b.breaks)-1])
			}
		case token.CONTINUE:
			if s.Label != nil {
				if t := b.labelContinue[s.Label.Name]; t != nil {
					b.edge(cur, t)
				}
			} else if len(b.continues) > 0 {
				b.edge(cur, b.continues[len(b.continues)-1])
			}
		case token.FALLTHROUGH:
			if b.fallthroughTo != nil {
				b.edge(cur, b.fallthroughTo)
			}
		case token.GOTO:
			b.edge(cur, b.cfg.Exit)
		}
		b.cfg.nodeBlock[s] = cur
		b.cur = nil

	case *ast.ReturnStmt:
		cur := b.current()
		cur.Stmts = append(cur.Stmts, s)
		b.edge(cur, b.cfg.Exit)
		b.cur = nil

	default:
		// Simple statement: assignments, declarations, expressions, send,
		// inc/dec, defer, go, empty.
		b.current().Stmts = append(b.current().Stmts, s)
	}
}

// switchBody builds the per-case blocks of a switch or type switch. Every
// case block is a successor of head (evaluation order among cases is not
// modeled; head dominating all cases is what the clients need). Each
// clause's case expressions become the conditions of its block.
func (b *cfgBuilder) switchBody(head *Block, clauses []ast.Stmt) {
	join := b.newBlock()
	b.breaks = append(b.breaks, join)
	caseBlocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, clause := range clauses {
		cc := clause.(*ast.CaseClause)
		blk := b.newBlock()
		b.edge(head, blk)
		for _, e := range cc.List {
			blk.Conds = append(blk.Conds, Cond{Expr: e})
		}
		if len(cc.List) == 0 {
			hasDefault = true
		}
		caseBlocks[i] = blk
	}
	for i, clause := range clauses {
		cc := clause.(*ast.CaseClause)
		if i+1 < len(caseBlocks) {
			b.fallthroughTo = caseBlocks[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.cur = caseBlocks[i]
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, join)
		}
	}
	b.fallthroughTo = nil
	if !hasDefault {
		b.edge(head, join)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = join
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if label != "" {
		if b.labelBreak == nil {
			b.labelBreak = map[string]*Block{}
			b.labelContinue = map[string]*Block{}
		}
		b.labelBreak[label] = brk
		b.labelContinue[label] = cont
	}
}

func (b *cfgBuilder) popLoop(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	if label != "" {
		delete(b.labelBreak, label)
		delete(b.labelContinue, label)
	}
}

// containsNode reports whether target occurs under root (FuncLit interiors
// excluded, mirroring the block node map).
func containsNode(root, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if n == target {
			found = true
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return true
	})
	return found
}

// ---- taint closure ----

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
