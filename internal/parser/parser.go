// Package parser implements a recursive-descent parser for the GraphQL
// query syntax of Appendix 4.A, with the chapter's worked extensions:
// `:=` assignment statements (Figure 4.12), body disjunction
// `{ ... } | { ... }` (Figure 4.5) and `export ... as ...` (Figure 4.6).
// Equality may be spelled `=` or `==` inside where clauses, as in the
// paper's examples.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"gqldb/internal/ast"
	"gqldb/internal/expr"
	"gqldb/internal/graph"
	"gqldb/internal/lexer"
)

// Parser consumes a token stream.
type Parser struct {
	toks []lexer.Token
	pos  int
}

// Parse parses a whole program.
func Parse(src string) (*ast.Program, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	prog := &ast.Program{}
	for !p.atEOF() {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, s)
	}
	return prog, nil
}

// ParseCollection parses a document in the text syntax — a program made of
// graph literals only — into the collection it denotes, in source order.
func ParseCollection(src string) (graph.Collection, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	var coll graph.Collection
	for _, s := range prog.Stmts {
		d, ok := s.(*ast.GraphDecl)
		if !ok {
			return nil, fmt.Errorf("parser: documents may contain only graph literals")
		}
		g, err := d.ToGraph()
		if err != nil {
			return nil, err
		}
		coll = append(coll, g)
	}
	return coll, nil
}

// ParseExpr parses a standalone predicate expression (used by tests and by
// programmatic query construction).
func ParseExpr(src string) (expr.Expr, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %s after expression", p.cur())
	}
	return e, nil
}

func (p *Parser) cur() lexer.Token  { return p.toks[p.pos] }
func (p *Parser) peek() lexer.Token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *Parser) atEOF() bool       { return p.cur().Kind == lexer.EOF }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("parser: line %d col %d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

func (p *Parser) isPunct(s string) bool {
	t := p.cur()
	return t.Kind == lexer.Punct && t.Text == s
}

func (p *Parser) isKw(s string) bool {
	t := p.cur()
	return t.Kind == lexer.Ident && t.Text == s
}

func (p *Parser) eatPunct(s string) bool {
	if p.isPunct(s) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) eatKw(s string) bool {
	if p.isKw(s) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectPunct(s string) error {
	if !p.eatPunct(s) {
		return p.errf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.cur()
	if t.Kind != lexer.Ident {
		return "", p.errf("expected identifier, found %s", t)
	}
	p.pos++
	return t.Text, nil
}

// stmt ::= GraphDecl ";" | FLWR ";" | Assign ";"
func (p *Parser) stmt() (ast.Stmt, error) {
	switch {
	case p.isKw("graph"):
		d, err := p.graphDecl()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return d, nil
	case p.isKw("for"):
		f, err := p.flwr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return f, nil
	case p.cur().Kind == lexer.Ident && p.peek().Kind == lexer.Punct && p.peek().Text == ":=":
		name, _ := p.expectIdent()
		p.pos++ // :=
		t, err := p.template()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ast.AssignStmt{Name: name, Tmpl: t}, nil
	// Mutation keywords are checked after the ":=" case so that
	// `create := graph {};` stays an assignment to a variable named create.
	case p.isKw("create"), p.isKw("drop"), p.isKw("insert"), p.isKw("delete"):
		m, err := p.mutation()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return m, nil
	}
	return nil, p.errf("expected statement, found %s", p.cur())
}

// mutation ::= "create" "graph" ID [Tuple] [MemberBlock] DocRef
//
//	| "drop" "graph" ID DocRef
//	| "insert" "node" ID [Tuple] "into" ID DocRef
//	| "insert" "edge" ID "(" ID "," ID ")" [Tuple] "into" ID DocRef
//	| "delete" ("node"|"edge") ID "from" ID DocRef
//
// DocRef ::= "in" "doc" "(" Str ")"
func (p *Parser) mutation() (*ast.MutationStmt, error) {
	m := &ast.MutationStmt{}
	switch {
	case p.eatKw("create"), p.eatKw("drop"):
		drop := p.toks[p.pos-1].Text == "drop"
		if !p.eatKw("graph") {
			return nil, p.errf("expected 'graph' after '%s'", p.toks[p.pos-1].Text)
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		m.Graph = name
		if drop {
			m.Kind = ast.MutDropGraph
			break
		}
		m.Kind = ast.MutCreateGraph
		if p.isPunct("<") {
			t, err := p.tuple()
			if err != nil {
				return nil, err
			}
			m.Tuple = t
		}
		if p.isPunct("{") {
			members, err := p.memberBlock()
			if err != nil {
				return nil, err
			}
			if err := p.checkLiteralMembers(m.Graph, members); err != nil {
				return nil, err
			}
			m.Members = members
		}
	case p.eatKw("insert"):
		switch {
		case p.eatKw("node"):
			m.Kind = ast.MutInsertNode
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			m.Name = name
			if p.isPunct("<") {
				t, err := p.tuple()
				if err != nil {
					return nil, err
				}
				m.Tuple = t
			}
		case p.eatKw("edge"):
			m.Kind = ast.MutInsertEdge
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			m.Name = name
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			if m.From, err = p.expectIdent(); err != nil {
				return nil, err
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
			if m.To, err = p.expectIdent(); err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			if p.isPunct("<") {
				t, err := p.tuple()
				if err != nil {
					return nil, err
				}
				m.Tuple = t
			}
		default:
			return nil, p.errf("expected 'node' or 'edge' after 'insert', found %s", p.cur())
		}
		if !p.eatKw("into") {
			return nil, p.errf("expected 'into', found %s", p.cur())
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		m.Graph = name
	case p.eatKw("delete"):
		switch {
		case p.eatKw("node"):
			m.Kind = ast.MutDeleteNode
		case p.eatKw("edge"):
			m.Kind = ast.MutDeleteEdge
		default:
			return nil, p.errf("expected 'node' or 'edge' after 'delete', found %s", p.cur())
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		m.Name = name
		if !p.eatKw("from") {
			return nil, p.errf("expected 'from', found %s", p.cur())
		}
		if m.Graph, err = p.expectIdent(); err != nil {
			return nil, err
		}
	}
	doc, err := p.docRef()
	if err != nil {
		return nil, err
	}
	m.Doc = doc
	return m, nil
}

// docRef ::= "in" "doc" "(" Str ")" — the document target shared by every
// mutation form (the same doc("...") spelling the for clause uses).
func (p *Parser) docRef() (string, error) {
	if !p.eatKw("in") {
		return "", p.errf("expected 'in', found %s", p.cur())
	}
	if !p.eatKw("doc") {
		return "", p.errf("expected 'doc', found %s", p.cur())
	}
	if err := p.expectPunct("("); err != nil {
		return "", err
	}
	if p.cur().Kind != lexer.Str {
		return "", p.errf("expected string literal in doc(...)")
	}
	name := p.cur().Text
	p.pos++
	return name, p.expectPunct(")")
}

// checkLiteralMembers restricts a create-graph body to what a graph
// literal can hold: plain node and edge declarations with local (undotted)
// names and no where clauses. Data carries no predicates or composition.
func (p *Parser) checkLiteralMembers(graphName string, members []ast.Member) error {
	for _, m := range members {
		switch x := m.(type) {
		case *ast.NodeDecl:
			if x.Where != nil {
				return p.errf("create graph %s: literal node cannot have a where clause", graphName)
			}
			if strings.Contains(x.Name, ".") {
				return p.errf("create graph %s: literal node name cannot be dotted", graphName)
			}
		case *ast.EdgeDecl:
			if x.Where != nil {
				return p.errf("create graph %s: literal edge cannot have a where clause", graphName)
			}
			if len(x.From) != 1 || len(x.To) != 1 {
				return p.errf("create graph %s: literal edge endpoints must be local node names", graphName)
			}
		default:
			return p.errf("create graph %s: body must contain only node and edge declarations", graphName)
		}
	}
	return nil
}

// graphDecl ::= "graph" [ID] [Tuple] "{" Member* "}" ("|" "{" Member* "}")* ["where" Expr]
func (p *Parser) graphDecl() (*ast.GraphDecl, error) {
	if !p.eatKw("graph") {
		return nil, p.errf("expected 'graph'")
	}
	d := &ast.GraphDecl{}
	if p.cur().Kind == lexer.Ident {
		d.Name = p.cur().Text
		p.pos++
	}
	if p.isPunct("<") {
		t, err := p.tuple()
		if err != nil {
			return nil, err
		}
		d.Tuple = t
	}
	members, err := p.memberBlock()
	if err != nil {
		return nil, err
	}
	d.Members = members
	for p.isPunct("|") {
		p.pos++
		alt, err := p.memberBlock()
		if err != nil {
			return nil, err
		}
		d.Alts = append(d.Alts, alt)
	}
	if p.eatKw("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		d.Where = e
	}
	return d, nil
}

// memberBlock ::= "{" Member* "}"
func (p *Parser) memberBlock() ([]ast.Member, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []ast.Member
	for !p.isPunct("}") {
		ms, err := p.member()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	p.pos++ // }
	return out, nil
}

// member parses one declaration, which may introduce several members
// (comma-separated node/edge lists). Anonymous nested blocks with
// disjunction ({...} | {...}, Figure 4.5) are flattened by the caller via
// graphDecl-level Alts; inside a body they are not supported.
func (p *Parser) member() ([]ast.Member, error) {
	switch {
	case p.eatKw("node"):
		var out []ast.Member
		for {
			n, err := p.nodeDecl()
			if err != nil {
				return nil, err
			}
			out = append(out, n)
			if !p.eatPunct(",") {
				break
			}
		}
		return out, p.expectPunct(";")
	case p.eatKw("edge"):
		var out []ast.Member
		for {
			e, err := p.edgeDecl()
			if err != nil {
				return nil, err
			}
			out = append(out, e)
			if !p.eatPunct(",") {
				break
			}
		}
		return out, p.expectPunct(";")
	case p.eatKw("graph"):
		var out []ast.Member
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ref := &ast.GraphRef{Name: name}
			if p.eatKw("as") {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				ref.As = alias
			}
			out = append(out, ref)
			if !p.eatPunct(",") {
				break
			}
		}
		return out, p.expectPunct(";")
	case p.eatKw("unify"):
		u := &ast.UnifyDecl{}
		for {
			n, err := p.names()
			if err != nil {
				return nil, err
			}
			u.Names = append(u.Names, n)
			if !p.eatPunct(",") {
				break
			}
		}
		if len(u.Names) < 2 {
			return nil, p.errf("unify needs at least two names")
		}
		if p.eatKw("where") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			u.Where = e
		}
		return []ast.Member{u}, p.expectPunct(";")
	case p.eatKw("export"):
		ref, err := p.names()
		if err != nil {
			return nil, err
		}
		if !p.eatKw("as") {
			return nil, p.errf("expected 'as' in export")
		}
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return []ast.Member{&ast.ExportDecl{Ref: ref, As: alias}}, p.expectPunct(";")
	}
	return nil, p.errf("expected member declaration, found %s", p.cur())
}

// nodeDecl ::= [Names][Tuple]["where" Expr] — the name may be dotted in
// template context (node P.v1).
func (p *Parser) nodeDecl() (*ast.NodeDecl, error) {
	n := &ast.NodeDecl{}
	if p.cur().Kind == lexer.Ident && !p.isKw("where") {
		parts, err := p.names()
		if err != nil {
			return nil, err
		}
		n.Name = joinDotted(parts)
	}
	if p.isPunct("<") {
		t, err := p.tuple()
		if err != nil {
			return nil, err
		}
		n.Tuple = t
	}
	if p.eatKw("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		n.Where = e
	}
	return n, nil
}

func joinDotted(parts []string) string {
	s := parts[0]
	for _, x := range parts[1:] {
		s += "." + x
	}
	return s
}

// edgeDecl ::= [ID] "(" Names "," Names ")" [Tuple] ["where" Expr]
func (p *Parser) edgeDecl() (*ast.EdgeDecl, error) {
	e := &ast.EdgeDecl{}
	if p.cur().Kind == lexer.Ident {
		e.Name = p.cur().Text
		p.pos++
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	from, err := p.names()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	to, err := p.names()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	e.From, e.To = from, to
	if p.isPunct("<") {
		t, err := p.tuple()
		if err != nil {
			return nil, err
		}
		e.Tuple = t
	}
	if p.eatKw("where") {
		ex, err := p.expr()
		if err != nil {
			return nil, err
		}
		e.Where = ex
	}
	return e, nil
}

// tuple ::= "<" [tag] (ID "=" Expr)* ">" — the leading identifier is a tag
// when it is not followed by "=".
func (p *Parser) tuple() (*ast.TupleDecl, error) {
	if err := p.expectPunct("<"); err != nil {
		return nil, err
	}
	t := &ast.TupleDecl{}
	if p.cur().Kind == lexer.Ident && !(p.peek().Kind == lexer.Punct && p.peek().Text == "=") {
		t.Tag = p.cur().Text
		p.pos++
	}
	first := true
	for !p.isPunct(">") {
		if !first {
			p.eatPunct(",") // commas between attributes are optional
		}
		first = false
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.additive() // no comparisons inside tuples: '>' closes
		if err != nil {
			return nil, err
		}
		t.Attrs = append(t.Attrs, ast.AttrDecl{Name: name, E: e})
	}
	p.pos++ // >
	return t, nil
}

// flwr ::= "for" (ID | GraphDecl) ["exhaustive"] "in" "doc" "(" Str ")"
//
//	["where" Expr] ("return" Template | "let" ID (":="|"=") Template)
func (p *Parser) flwr() (*ast.FLWRStmt, error) {
	if !p.eatKw("for") {
		return nil, p.errf("expected 'for'")
	}
	f := &ast.FLWRStmt{}
	if p.isKw("graph") {
		d, err := p.graphDecl()
		if err != nil {
			return nil, err
		}
		f.Pattern = d
	} else {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		f.PatternName = name
	}
	if p.eatKw("exhaustive") {
		f.Exhaustive = true
	}
	if !p.eatKw("in") {
		return nil, p.errf("expected 'in'")
	}
	if !p.eatKw("doc") {
		return nil, p.errf("expected 'doc'")
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if p.cur().Kind != lexer.Str {
		return nil, p.errf("expected string literal in doc(...)")
	}
	f.Doc = p.cur().Text
	p.pos++
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.eatKw("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		f.Where = e
	}
	switch {
	case p.eatKw("return"):
		t, err := p.template()
		if err != nil {
			return nil, err
		}
		f.Return = t
	case p.eatKw("let"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if !p.eatPunct(":=") && !p.eatPunct("=") {
			return nil, p.errf("expected ':=' in let")
		}
		t, err := p.template()
		if err != nil {
			return nil, err
		}
		f.LetName, f.Let = name, t
	default:
		return nil, p.errf("expected 'return' or 'let', found %s", p.cur())
	}
	return f, nil
}

// template ::= "graph" [ID] [Tuple] "{" Member* "}" | ID
func (p *Parser) template() (*ast.TemplateDecl, error) {
	if !p.isKw("graph") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ast.TemplateDecl{Ref: name}, nil
	}
	p.pos++ // graph
	t := &ast.TemplateDecl{}
	if p.cur().Kind == lexer.Ident {
		t.Name = p.cur().Text
		p.pos++
	}
	if p.isPunct("<") {
		tu, err := p.tuple()
		if err != nil {
			return nil, err
		}
		t.Tuple = tu
	}
	members, err := p.memberBlock()
	if err != nil {
		return nil, err
	}
	t.Members = members
	return t, nil
}

// names ::= ID ("." ID)*
func (p *Parser) names() ([]string, error) {
	first, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	parts := []string{first}
	for p.isPunct(".") {
		p.pos++
		next, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	return parts, nil
}

// Expression grammar with standard precedence:
//
//	expr   ::= andE ("|" andE)*
//	andE   ::= cmpE ("&" cmpE)*
//	cmpE   ::= additive (("=="|"="|"!="|">"|">="|"<"|"<=") additive)?
//	additive ::= mulE (("+"|"-") mulE)*
//	mulE   ::= term (("*"|"/") term)*
//	term   ::= "(" expr ")" | literal | names
func (p *Parser) expr() (expr.Expr, error) {
	l, err := p.andE()
	if err != nil {
		return nil, err
	}
	for p.isPunct("|") {
		p.pos++
		r, err := p.andE()
		if err != nil {
			return nil, err
		}
		l = expr.Binary{Op: expr.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) andE() (expr.Expr, error) {
	l, err := p.cmpE()
	if err != nil {
		return nil, err
	}
	for p.isPunct("&") || p.isKw("and") {
		p.pos++
		r, err := p.cmpE()
		if err != nil {
			return nil, err
		}
		l = expr.Binary{Op: expr.OpAnd, L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]expr.Op{
	"==": expr.OpEq, "=": expr.OpEq, "!=": expr.OpNe,
	">": expr.OpGt, ">=": expr.OpGe, "<": expr.OpLt, "<=": expr.OpLe,
}

func (p *Parser) cmpE() (expr.Expr, error) {
	l, err := p.additive()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == lexer.Punct {
		if op, ok := cmpOps[p.cur().Text]; ok {
			p.pos++
			r, err := p.additive()
			if err != nil {
				return nil, err
			}
			return expr.Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *Parser) additive() (expr.Expr, error) {
	l, err := p.mulE()
	if err != nil {
		return nil, err
	}
	for p.isPunct("+") || p.isPunct("-") {
		op := expr.OpAdd
		if p.cur().Text == "-" {
			op = expr.OpSub
		}
		p.pos++
		r, err := p.mulE()
		if err != nil {
			return nil, err
		}
		l = expr.Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) mulE() (expr.Expr, error) {
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	for p.isPunct("*") || p.isPunct("/") {
		op := expr.OpMul
		if p.cur().Text == "/" {
			op = expr.OpDiv
		}
		p.pos++
		r, err := p.term()
		if err != nil {
			return nil, err
		}
		l = expr.Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) term() (expr.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case lexer.Punct:
		if t.Text == "(" {
			p.pos++
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			return e, p.expectPunct(")")
		}
		if t.Text == "-" { // unary minus
			p.pos++
			inner, err := p.term()
			if err != nil {
				return nil, err
			}
			// Fold negative numeric literals so they stay literals (graph
			// declarations accept only literal attribute values).
			if lit, ok := inner.(expr.Lit); ok {
				switch lit.Val.Kind() {
				case graph.KindInt:
					return expr.Lit{Val: graph.Int(-lit.Val.AsInt())}, nil
				case graph.KindFloat:
					return expr.Lit{Val: graph.Float(-lit.Val.AsFloat())}, nil
				}
			}
			return expr.Binary{Op: expr.OpSub, L: expr.Lit{Val: graph.Int(0)}, R: inner}, nil
		}
	case lexer.Int:
		p.pos++
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.Text)
		}
		return expr.Lit{Val: graph.Int(i)}, nil
	case lexer.Float:
		p.pos++
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", t.Text)
		}
		return expr.Lit{Val: graph.Float(f)}, nil
	case lexer.Str:
		p.pos++
		return expr.Lit{Val: graph.String(t.Text)}, nil
	case lexer.Ident:
		switch t.Text {
		case "true":
			p.pos++
			return expr.Lit{Val: graph.Bool(true)}, nil
		case "false":
			p.pos++
			return expr.Lit{Val: graph.Bool(false)}, nil
		}
		parts, err := p.names()
		if err != nil {
			return nil, err
		}
		return expr.Name{Parts: parts}, nil
	}
	return nil, p.errf("expected expression term, found %s", t)
}
