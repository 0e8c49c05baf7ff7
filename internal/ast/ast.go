// Package ast defines the abstract syntax of GraphQL programs (Appendix
// 4.A) and the lowering of parsed declarations into executable forms:
// graph literals, graph patterns (internal/pattern), graph templates
// (internal/algebra) and motif grammars (internal/motif).
package ast

import (
	"fmt"
	"strings"

	"gqldb/internal/algebra"
	"gqldb/internal/expr"
	"gqldb/internal/graph"
	"gqldb/internal/motif"
	"gqldb/internal/pattern"
)

// Program is a parsed query file: a sequence of statements.
type Program struct {
	Stmts []Stmt
}

// Stmt is a top-level statement.
type Stmt interface{ isStmt() }

// GraphDecl declares a named graph pattern / motif / graph literal:
// graph P [<tuple>] { members } [where expr];
type GraphDecl struct {
	Name    string
	Tuple   *TupleDecl
	Members []Member
	// Alts holds further disjunction alternatives ({...} | {...}).
	Alts  [][]Member
	Where expr.Expr
}

// AssignStmt is ID := GraphTemplate; (e.g. C := graph {};).
type AssignStmt struct {
	Name string
	Tmpl *TemplateDecl
}

// FLWRStmt is a for/let-or-return expression (§3.4).
type FLWRStmt struct {
	// PatternName references a declared pattern, or Pattern holds an
	// inline declaration.
	PatternName string
	Pattern     *GraphDecl
	Exhaustive  bool
	// Doc is the data source name inside doc("...").
	Doc   string
	Where expr.Expr
	// Exactly one of Return/LetName+Let is set.
	Return  *TemplateDecl
	LetName string
	Let     *TemplateDecl
}

func (*GraphDecl) isStmt()  {}
func (*AssignStmt) isStmt() {}
func (*FLWRStmt) isStmt()   {}

// Member is one declaration inside a graph pattern body.
type Member interface{ isMember() }

// NodeDecl declares pattern/graph nodes: node v1 <tuple> [where expr].
type NodeDecl struct {
	Name  string
	Tuple *TupleDecl
	Where expr.Expr
}

// EdgeDecl declares an edge: edge e1 (a, b) <tuple> [where expr].
type EdgeDecl struct {
	Name     string
	From, To []string
	Tuple    *TupleDecl
	Where    expr.Expr
}

// GraphRef embeds another declared graph/motif: graph G1 [as X];
type GraphRef struct {
	Name string
	As   string
}

// UnifyDecl merges nodes: unify a.b, c.d [, e.f ...] [where expr];
type UnifyDecl struct {
	Names [][]string
	Where expr.Expr
}

// ExportDecl re-exports a nested node: export Path.v2 as v2;
type ExportDecl struct {
	Ref []string
	As  string
}

func (*NodeDecl) isMember()   {}
func (*EdgeDecl) isMember()   {}
func (*GraphRef) isMember()   {}
func (*UnifyDecl) isMember()  {}
func (*ExportDecl) isMember() {}

// TupleDecl is <tag attr=value, ...>; values are expressions (literals in
// pattern context, computed in template context).
type TupleDecl struct {
	Tag   string
	Attrs []AttrDecl
}

// AttrDecl is one attribute assignment in a tuple.
type AttrDecl struct {
	Name string
	E    expr.Expr
}

// TemplateDecl is a graph template body or a bare reference to a graph
// variable (GraphTemplate ::= "graph" ... | <ID>).
type TemplateDecl struct {
	Ref     string // non-empty: the template is just a variable reference
	Name    string
	Tuple   *TupleDecl
	Members []Member
}

// ---- Lowering ----

// evalConstTuple evaluates a tuple declaration with no free names into a
// graph.Tuple; used for graph literals and pattern attribute constraints.
func evalConstTuple(td *TupleDecl) (*graph.Tuple, error) {
	if td == nil {
		return nil, nil
	}
	t := graph.NewTuple(td.Tag)
	for _, a := range td.Attrs {
		lit, ok := a.E.(expr.Lit)
		if !ok {
			return nil, fmt.Errorf("ast: attribute %s: only literals allowed here", a.Name)
		}
		t.Set(a.Name, lit.Val)
	}
	return t, nil
}

// IsSimple reports whether the declaration uses only node and edge members
// with no disjunction — i.e. it lowers directly to a graph or a
// non-recursive pattern.
func (d *GraphDecl) IsSimple() bool {
	if len(d.Alts) > 0 {
		return false
	}
	for _, m := range d.Members {
		switch m.(type) {
		case *NodeDecl, *EdgeDecl:
		default:
			return false
		}
	}
	return true
}

// ToGraph lowers a simple declaration into a concrete graph (a graph
// literal). Where clauses are rejected: data carries no predicates.
func (d *GraphDecl) ToGraph() (*graph.Graph, error) {
	if !d.IsSimple() {
		return nil, fmt.Errorf("ast: graph %s: literal graphs cannot use composition or disjunction", d.Name)
	}
	if d.Where != nil {
		return nil, fmt.Errorf("ast: graph %s: literal graphs cannot have where clauses", d.Name)
	}
	g := graph.New(d.Name)
	attrs, err := evalConstTuple(d.Tuple)
	if err != nil {
		return nil, err
	}
	g.Attrs = attrs
	for _, m := range d.Members {
		switch x := m.(type) {
		case *NodeDecl:
			if x.Where != nil {
				return nil, fmt.Errorf("ast: graph %s: literal node cannot have a where clause", d.Name)
			}
			t, err := evalConstTuple(x.Tuple)
			if err != nil {
				return nil, err
			}
			g.AddNode(x.Name, t)
		case *EdgeDecl:
			if x.Where != nil {
				return nil, fmt.Errorf("ast: graph %s: literal edge cannot have a where clause", d.Name)
			}
			if len(x.From) != 1 || len(x.To) != 1 {
				return nil, fmt.Errorf("ast: graph %s: literal edge endpoints must be local nodes", d.Name)
			}
			from, ok1 := g.NodeByName(x.From[0])
			to, ok2 := g.NodeByName(x.To[0])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("ast: graph %s: edge %s references undeclared node", d.Name, x.Name)
			}
			t, err := evalConstTuple(x.Tuple)
			if err != nil {
				return nil, err
			}
			g.AddEdge(x.Name, from, to, t)
		}
	}
	if err := g.Err(); err != nil {
		return nil, fmt.Errorf("ast: graph %s: %w", d.Name, err)
	}
	return g, nil
}

// ToPattern lowers a simple declaration into a compiled pattern, with any
// extra where clauses conjoined to the declaration's own.
func (d *GraphDecl) ToPattern(extraWhere ...expr.Expr) (*pattern.Pattern, error) {
	if !d.IsSimple() {
		return nil, fmt.Errorf("ast: pattern %s: recursive/disjunctive patterns must be lowered via ToMotifDef and derived", d.Name)
	}
	p := pattern.New(d.Name)
	for _, m := range d.Members {
		switch x := m.(type) {
		case *NodeDecl:
			t, err := evalConstTuple(x.Tuple)
			if err != nil {
				return nil, err
			}
			p.AddNode(x.Name, t, x.Where)
		case *EdgeDecl:
			if len(x.From) != 1 || len(x.To) != 1 {
				return nil, fmt.Errorf("ast: pattern %s: edge endpoints must be local nodes", d.Name)
			}
			from, ok1 := p.Motif.NodeByName(x.From[0])
			to, ok2 := p.Motif.NodeByName(x.To[0])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("ast: pattern %s: edge %s references undeclared node", d.Name, x.Name)
			}
			t, err := evalConstTuple(x.Tuple)
			if err != nil {
				return nil, err
			}
			p.AddEdge(x.Name, from, to, t, x.Where)
		}
	}
	p.Where(d.Where)
	for _, e := range extraWhere {
		p.Where(e)
	}
	if err := p.Compile(); err != nil {
		return nil, err
	}
	return p, nil
}

// ToMotifDef lowers a (possibly recursive/disjunctive) declaration into a
// motif definition for bounded derivation. Node attribute tuples are
// carried; predicates other than attribute equality are not representable
// in motif form and are rejected.
func (d *GraphDecl) ToMotifDef() (*motif.Def, error) {
	if d.Where != nil {
		return nil, fmt.Errorf("ast: motif %s: where clauses are not supported on recursive motifs", d.Name)
	}
	alts := append([][]Member{d.Members}, d.Alts...)
	def := &motif.Def{Name: d.Name}
	for _, members := range alts {
		var b motif.Body
		for _, m := range members {
			switch x := m.(type) {
			case *NodeDecl:
				if x.Where != nil {
					return nil, fmt.Errorf("ast: motif %s: node where clauses unsupported in recursive motifs", d.Name)
				}
				t, err := evalConstTuple(x.Tuple)
				if err != nil {
					return nil, err
				}
				b.Nodes = append(b.Nodes, motif.NodeSpec{Name: x.Name, Attrs: t})
			case *EdgeDecl:
				t, err := evalConstTuple(x.Tuple)
				if err != nil {
					return nil, err
				}
				b.Edges = append(b.Edges, motif.EdgeSpec{
					Name:  x.Name,
					From:  strings.Join(x.From, "."),
					To:    strings.Join(x.To, "."),
					Attrs: t,
				})
			case *GraphRef:
				b.Subs = append(b.Subs, motif.SubSpec{Motif: x.Name, As: x.As})
			case *UnifyDecl:
				if x.Where != nil {
					return nil, fmt.Errorf("ast: motif %s: unify where clauses unsupported in motifs", d.Name)
				}
				for i := 1; i < len(x.Names); i++ {
					b.Unifies = append(b.Unifies, motif.UnifySpec{
						A: strings.Join(x.Names[0], "."),
						B: strings.Join(x.Names[i], "."),
					})
				}
			case *ExportDecl:
				b.Exports = append(b.Exports, motif.ExportSpec{
					Ref: strings.Join(x.Ref, "."),
					As:  x.As,
				})
			}
		}
		def.Alts = append(def.Alts, b)
	}
	return def, nil
}

// ToTemplate lowers a template declaration into an executable algebra
// template. The referenced parameter names are whatever qualified names the
// body mentions; binding happens at instantiation time.
func (t *TemplateDecl) ToTemplate() (*algebra.Template, error) {
	if t.Ref != "" {
		return nil, fmt.Errorf("ast: template is a bare reference to %s", t.Ref)
	}
	out := &algebra.Template{Name: t.Name}
	if t.Tuple != nil {
		out.Tag = t.Tuple.Tag
		for _, a := range t.Tuple.Attrs {
			out.Attrs = append(out.Attrs, algebra.AttrTemplate{Name: a.Name, E: a.E})
		}
	}
	for _, m := range t.Members {
		switch x := m.(type) {
		case *NodeDecl:
			n := algebra.TNode{}
			if strings.Contains(x.Name, ".") {
				n.Ref = strings.Split(x.Name, ".")
			} else {
				n.Name = x.Name
			}
			if x.Tuple != nil {
				n.Tag = x.Tuple.Tag
				for _, a := range x.Tuple.Attrs {
					n.Attrs = append(n.Attrs, algebra.AttrTemplate{Name: a.Name, E: a.E})
				}
			}
			out.Members = append(out.Members, n)
		case *EdgeDecl:
			e := algebra.TEdge{Name: x.Name, From: x.From, To: x.To}
			if x.Tuple != nil {
				e.Tag = x.Tuple.Tag
				for _, a := range x.Tuple.Attrs {
					e.Attrs = append(e.Attrs, algebra.AttrTemplate{Name: a.Name, E: a.E})
				}
			}
			out.Members = append(out.Members, e)
		case *GraphRef:
			out.Members = append(out.Members, algebra.TGraph{Var: x.Name})
		case *UnifyDecl:
			if len(x.Names) < 2 {
				return nil, fmt.Errorf("ast: unify needs at least two names")
			}
			for i := 1; i < len(x.Names); i++ {
				out.Members = append(out.Members, algebra.TUnify{
					A:     x.Names[0],
					B:     x.Names[i],
					Where: x.Where,
				})
			}
		default:
			return nil, fmt.Errorf("ast: unsupported template member %T", m)
		}
	}
	return out, nil
}
