package sqlbase

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// The SQL subset:
//
//	SELECT col (, col)* FROM tbl AS alias (, tbl AS alias)*
//	[WHERE cond (AND cond)*] ;
//
// where col is alias.column and cond is `operand op operand` with op one of
// = <> != < <= > >= and operands either alias.column references or literals
// (integers, floats, 'single-quoted strings').

// ColRef names alias.column.
type ColRef struct {
	Alias string
	Col   string
}

func (c ColRef) String() string { return c.Alias + "." + c.Col }

// Operand is a column reference or a literal.
type Operand struct {
	Col *ColRef
	Lit *Literal
}

// Literal is a constant in a condition.
type Literal struct {
	IsInt bool
	Int   int64
	IsStr bool
	Str   string
	Float float64
}

// Cond is one conjunct of the WHERE clause.
type Cond struct {
	L  Operand
	Op string
	R  Operand
}

// FromItem is one table reference with its alias.
type FromItem struct {
	Table string
	Alias string
}

// SelectStmt is a parsed query.
type SelectStmt struct {
	Cols  []ColRef
	From  []FromItem
	Where []Cond
}

// String renders the literal in the lexer's syntax: strings with each quote
// escaped as a doubled single quote, and floats always with a decimal point
// so the Int/Float kind survives a reparse.
func (l *Literal) String() string {
	switch {
	case l.IsStr:
		return "'" + strings.ReplaceAll(l.Str, "'", "''") + "'"
	case l.IsInt:
		return strconv.FormatInt(l.Int, 10)
	default:
		s := strconv.FormatFloat(l.Float, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}
}

func (o Operand) String() string {
	if o.Col != nil {
		return o.Col.String()
	}
	return o.Lit.String()
}

func (c Cond) String() string { return c.L.String() + " " + c.Op + " " + c.R.String() }

// String renders the statement back into the parsed subset. The rendering
// always spells the AS keyword and the trailing semicolon, so
// ParseSQL(st.String()) reproduces st exactly (the fuzzer's round-trip
// invariant).
func (st *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, c := range st.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
	b.WriteString(" FROM ")
	for i, f := range st.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Table + " AS " + f.Alias)
	}
	if len(st.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, c := range st.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(c.String())
		}
	}
	b.WriteString(";")
	return b.String()
}

// sqlToken kinds.
type sqlTokKind uint8

const (
	sqlEOF sqlTokKind = iota
	sqlIdent
	sqlNumber
	sqlString
	sqlPunct
)

type sqlTok struct {
	kind sqlTokKind
	text string
}

func sqlLex(src string) ([]sqlTok, error) {
	var out []sqlTok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			out = append(out, sqlTok{sqlIdent, src[i:j]})
			i = j
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			out = append(out, sqlTok{sqlNumber, src[i:j]})
			i = j
		case c == '\'':
			// A doubled quote inside the literal is an escaped quote
			// (standard SQL), matching what PatternToSQL emits.
			j := i + 1
			var b strings.Builder
			closed := false
			for j < len(src) {
				if src[j] == '\'' {
					if j+1 < len(src) && src[j+1] == '\'' {
						b.WriteByte('\'')
						j += 2
						continue
					}
					closed = true
					break
				}
				b.WriteByte(src[j])
				j++
			}
			if !closed {
				return nil, fmt.Errorf("sqlbase: unterminated string literal")
			}
			out = append(out, sqlTok{sqlString, b.String()})
			i = j + 1
		default:
			matched := false
			for _, p := range []string{"<>", "!=", "<=", ">="} {
				if strings.HasPrefix(src[i:], p) {
					out = append(out, sqlTok{sqlPunct, p})
					i += 2
					matched = true
					break
				}
			}
			if !matched && strings.IndexByte(",.()=<>;*", c) >= 0 {
				out = append(out, sqlTok{sqlPunct, string(c)})
				i++
				matched = true
			}
			if !matched {
				return nil, fmt.Errorf("sqlbase: unexpected character %q", c)
			}
		}
	}
	out = append(out, sqlTok{sqlEOF, ""})
	return out, nil
}

type sqlParser struct {
	toks []sqlTok
	pos  int
}

func (p *sqlParser) cur() sqlTok { return p.toks[p.pos] }

func (p *sqlParser) kw(s string) bool {
	t := p.cur()
	if t.kind == sqlIdent && strings.EqualFold(t.text, s) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) punct(s string) bool {
	t := p.cur()
	if t.kind == sqlPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) ident() (string, error) {
	t := p.cur()
	if t.kind != sqlIdent {
		return "", fmt.Errorf("sqlbase: expected identifier, found %q", t.text)
	}
	p.pos++
	return t.text, nil
}

// ParseSQL parses one SELECT statement.
func ParseSQL(src string) (*SelectStmt, error) {
	toks, err := sqlLex(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	if !p.kw("SELECT") {
		return nil, fmt.Errorf("sqlbase: expected SELECT")
	}
	st := &SelectStmt{}
	for {
		c, err := p.colRef()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, c)
		if !p.punct(",") {
			break
		}
	}
	if !p.kw("FROM") {
		return nil, fmt.Errorf("sqlbase: expected FROM")
	}
	for {
		tbl, err := p.ident()
		if err != nil {
			return nil, err
		}
		alias := tbl
		if p.kw("AS") {
			alias, err = p.ident()
			if err != nil {
				return nil, err
			}
		}
		st.From = append(st.From, FromItem{Table: tbl, Alias: alias})
		if !p.punct(",") {
			break
		}
	}
	if p.kw("WHERE") {
		for {
			c, err := p.cond()
			if err != nil {
				return nil, err
			}
			st.Where = append(st.Where, c)
			if !p.kw("AND") {
				break
			}
		}
	}
	p.punct(";")
	if p.cur().kind != sqlEOF {
		return nil, fmt.Errorf("sqlbase: trailing input %q", p.cur().text)
	}
	return st, nil
}

func (p *sqlParser) colRef() (ColRef, error) {
	a, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	if !p.punct(".") {
		return ColRef{}, fmt.Errorf("sqlbase: expected alias.column, found bare %q", a)
	}
	c, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	return ColRef{Alias: a, Col: c}, nil
}

func (p *sqlParser) operand() (Operand, error) {
	t := p.cur()
	switch t.kind {
	case sqlIdent:
		c, err := p.colRef()
		if err != nil {
			return Operand{}, err
		}
		return Operand{Col: &c}, nil
	case sqlNumber:
		p.pos++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return Operand{}, fmt.Errorf("sqlbase: bad number %q", t.text)
			}
			return Operand{Lit: &Literal{Float: f}}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("sqlbase: bad number %q", t.text)
		}
		return Operand{Lit: &Literal{IsInt: true, Int: n}}, nil
	case sqlString:
		p.pos++
		return Operand{Lit: &Literal{IsStr: true, Str: t.text}}, nil
	}
	return Operand{}, fmt.Errorf("sqlbase: expected operand, found %q", t.text)
}

var sqlOps = map[string]string{"=": "=", "<>": "<>", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

func (p *sqlParser) cond() (Cond, error) {
	l, err := p.operand()
	if err != nil {
		return Cond{}, err
	}
	t := p.cur()
	op, ok := sqlOps[t.text]
	if t.kind != sqlPunct || !ok {
		return Cond{}, fmt.Errorf("sqlbase: expected comparison operator, found %q", t.text)
	}
	p.pos++
	r, err := p.operand()
	if err != nil {
		return Cond{}, err
	}
	return Cond{L: l, Op: op, R: r}, nil
}
