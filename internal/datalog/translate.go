package datalog

import (
	"fmt"

	"gqldb/internal/expr"
	"gqldb/internal/graph"
	"gqldb/internal/pattern"
)

// GraphToFacts translates a graph into facts per Figure 4.14: each variable
// becomes a unique constant string qualified by the graph name, and
// undirected edges are written twice with permuted end points. Attributes
// become attribute(owner, name, value) facts for the graph and
// nattr/eattr(owner, name, value) facts for nodes and edges; tags become
// tag(owner, tag) facts.
func GraphToFacts(db *DB, g *graph.Graph) {
	gc := graph.String(g.Name)
	db.Assert("graph", gc)
	if g.Attrs != nil {
		if g.Attrs.Tag != "" {
			db.Assert("tag", gc, graph.String(g.Attrs.Tag))
		}
		for i := 0; i < g.Attrs.Len(); i++ {
			a := g.Attrs.At(i)
			db.Assert("attribute", gc, graph.String(a.Name), a.Val)
		}
	}
	for _, n := range g.Nodes() {
		nc := graph.String(g.Name + "." + n.Name)
		db.Assert("node", gc, nc)
		if n.Attrs != nil {
			if n.Attrs.Tag != "" {
				db.Assert("tag", nc, graph.String(n.Attrs.Tag))
			}
			for i := 0; i < n.Attrs.Len(); i++ {
				a := n.Attrs.At(i)
				db.Assert("nattr", nc, graph.String(a.Name), a.Val)
			}
		}
	}
	for _, e := range g.Edges() {
		ec := graph.String(g.Name + "." + e.Name)
		from := graph.String(g.Name + "." + g.Node(e.From).Name)
		to := graph.String(g.Name + "." + g.Node(e.To).Name)
		db.Assert("edge", gc, ec, from, to)
		if !g.Directed {
			db.Assert("edge", gc, ec, to, from)
		}
		if e.Attrs != nil {
			for i := 0; i < e.Attrs.Len(); i++ {
				a := e.Attrs.At(i)
				db.Assert("eattr", ec, graph.String(a.Name), a.Val)
			}
		}
	}
}

// PatternToRule translates a compiled graph pattern into a Datalog rule per
// Figure 4.15, extended with the injectivity constraints of Definition 4.2
// (Vi != Vj for distinct pattern nodes) and with node/edge predicate
// translation. The head is Pattern(G, V1, ..., Vk).
//
// Supported predicates are conjunctions of comparisons between an attribute
// name and a literal (pushed-down node/edge predicates) and between two
// node attributes (residual global conjuncts); anything else returns an
// error — such patterns exceed the fragment translated in §3.5's proof
// sketch.
func PatternToRule(p *pattern.Pattern, headPred string) (Rule, error) {
	if err := p.Compile(); err != nil {
		return Rule{}, err
	}
	m := p.Motif
	r := Rule{Head: Atom{Pred: headPred}}
	gv := V("G")
	r.Head.Args = append(r.Head.Args, gv)
	r.Body = append(r.Body, Atom{Pred: "graph", Args: []Term{gv}})

	nodeVar := make([]Term, m.NumNodes())
	fresh := 0
	freshVar := func(prefix string) Term {
		fresh++
		return V(fmt.Sprintf("_%s%d", prefix, fresh))
	}
	for _, n := range m.Nodes() {
		nodeVar[n.ID] = V("V_" + n.Name)
		r.Head.Args = append(r.Head.Args, nodeVar[n.ID])
	}
	// Injectivity: all pairs distinct. The engine applies each builtin as
	// soon as both variables bind.
	for i := 0; i < m.NumNodes(); i++ {
		for j := i + 1; j < m.NumNodes(); j++ {
			r.Builtins = append(r.Builtins, Builtin{Op: Ne, L: nodeVar[i], R: nodeVar[j]})
		}
	}
	// Interleave: each node is bound through its first edge to an earlier
	// node when it has one, then checked by its node atom and attribute
	// constraints, and every other edge is emitted as soon as both
	// endpoints are bound, so the left-to-right join walks edges instead of
	// scanning every data node per partial binding.
	emittedEdge := make([]bool, m.NumEdges())
	emitEdge := func(e graph.Edge) error {
		emittedEdge[e.ID] = true
		ev := V("E_" + e.Name)
		r.Body = append(r.Body, Atom{Pred: "edge", Args: []Term{gv, ev, nodeVar[e.From], nodeVar[e.To]}})
		return addAttrPred(&r, "eattr", ev, p.EdgePred[e.ID], freshVar)
	}
	for _, n := range m.Nodes() {
		v := nodeVar[n.ID]
		for _, e := range m.Edges() {
			if max(e.From, e.To) == n.ID && min(e.From, e.To) < n.ID {
				if err := emitEdge(e); err != nil {
					return Rule{}, err
				}
				break
			}
		}
		r.Body = append(r.Body, Atom{Pred: "node", Args: []Term{gv, v}})
		if tag := p.NodeTag[n.ID]; tag != "" {
			r.Body = append(r.Body, Atom{Pred: "tag", Args: []Term{v, CS(tag)}})
		}
		if err := addAttrPred(&r, "nattr", v, p.NodePred[n.ID], freshVar); err != nil {
			return Rule{}, err
		}
		for _, e := range m.Edges() {
			if emittedEdge[e.ID] || e.From > n.ID || e.To > n.ID {
				continue
			}
			if err := emitEdge(e); err != nil {
				return Rule{}, err
			}
		}
	}
	// Residual global conjuncts: node-attr vs node-attr or graph-attr vs
	// literal comparisons.
	for _, c := range expr.Conjuncts(p.Global) {
		if err := addGlobalConjunct(&r, p, c, gv, nodeVar, freshVar); err != nil {
			return Rule{}, err
		}
	}
	return r, nil
}

func cmpOpOf(op expr.Op) (CmpOp, bool) {
	switch op {
	case expr.OpEq:
		return Eq, true
	case expr.OpNe:
		return Ne, true
	case expr.OpLt:
		return Lt, true
	case expr.OpLe:
		return Le, true
	case expr.OpGt:
		return Gt, true
	case expr.OpGe:
		return Ge, true
	}
	return 0, false
}

// addAttrPred translates a pushed-down element predicate (conjunction of
// `attr <op> literal` comparisons) into attribute atoms plus builtins.
func addAttrPred(r *Rule, attrPred string, owner Term, e expr.Expr, freshVar func(string) Term) error {
	for _, c := range expr.Conjuncts(e) {
		b, ok := c.(expr.Binary)
		if !ok {
			return fmt.Errorf("datalog: unsupported predicate %s", c)
		}
		op, okOp := cmpOpOf(b.Op)
		nm, okL := b.L.(expr.Name)
		lit, okR := b.R.(expr.Lit)
		if !okL || !okR {
			// literal <op> name: flip.
			nm, okL = b.R.(expr.Name)
			lit, okR = b.L.(expr.Lit)
			op = flip(op)
		}
		if !okOp || !okL || !okR || len(nm.Parts) != 1 {
			return fmt.Errorf("datalog: unsupported predicate %s", c)
		}
		tv := freshVar("t")
		r.Body = append(r.Body, Atom{Pred: attrPred, Args: []Term{owner, CS(nm.Parts[0]), tv}})
		r.Builtins = append(r.Builtins, Builtin{Op: op, L: tv, R: C(lit.Val)})
	}
	return nil
}

func flip(op CmpOp) CmpOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	}
	return op
}

// addGlobalConjunct translates a residual conjunct: either
// node1.attr <op> node2.attr or graphattr <op> literal.
func addGlobalConjunct(r *Rule, p *pattern.Pattern, c expr.Expr, gv Term, nodeVar []Term, freshVar func(string) Term) error {
	b, ok := c.(expr.Binary)
	if !ok {
		return fmt.Errorf("datalog: unsupported global predicate %s", c)
	}
	op, okOp := cmpOpOf(b.Op)
	if !okOp {
		return fmt.Errorf("datalog: unsupported global predicate %s", c)
	}
	side := func(e expr.Expr) (Term, error) {
		switch x := e.(type) {
		case expr.Lit:
			return C(x.Val), nil
		case expr.Name:
			parts := x.Parts
			if len(parts) >= 2 && p.Name != "" && parts[0] == p.Name {
				parts = parts[1:]
			}
			if len(parts) == 2 {
				if u, okN := p.Motif.NodeByName(parts[0]); okN {
					tv := freshVar("g")
					r.Body = append(r.Body, Atom{Pred: "nattr", Args: []Term{nodeVar[u], CS(parts[1]), tv}})
					return tv, nil
				}
			}
			if len(parts) == 1 {
				tv := freshVar("g")
				r.Body = append(r.Body, Atom{Pred: "attribute", Args: []Term{gv, CS(parts[0]), tv}})
				return tv, nil
			}
			return Term{}, fmt.Errorf("datalog: unsupported name %s", x)
		}
		return Term{}, fmt.Errorf("datalog: unsupported operand %s", e)
	}
	l, err := side(b.L)
	if err != nil {
		return err
	}
	rr, err := side(b.R)
	if err != nil {
		return err
	}
	r.Builtins = append(r.Builtins, Builtin{Op: op, L: l, R: rr})
	return nil
}
