package pattern

import (
	"testing"

	"gqldb/internal/expr"
	"gqldb/internal/graph"
)

func eq(l, r expr.Expr) expr.Expr  { return expr.Binary{Op: expr.OpEq, L: l, R: r} }
func gt(l, r expr.Expr) expr.Expr  { return expr.Binary{Op: expr.OpGt, L: l, R: r} }
func nm(parts ...string) expr.Expr { return expr.Name{Parts: parts} }
func lit(v any) expr.Expr {
	switch x := v.(type) {
	case int:
		return expr.Lit{Val: graph.Int(int64(x))}
	case string:
		return expr.Lit{Val: graph.String(x)}
	}
	panic("bad lit")
}

// Figure 4.8: graph P { node v1 where name="A"; node v2 where year>2000 }.
func fig48(t *testing.T) *Pattern {
	t.Helper()
	p := New("P")
	p.AddNode("v1", nil, eq(nm("name"), lit("A")))
	p.AddNode("v2", nil, gt(nm("year"), lit(2000)))
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNodeLevelWhere(t *testing.T) {
	p := fig48(t)
	v1, _ := p.Motif.NodeByName("v1")
	v2, _ := p.Motif.NodeByName("v2")
	if p.Global != nil {
		t.Errorf("all conjuncts should be pushed down, residual = %s", p.Global)
	}
	ok, err := p.NodeMatches(v1, graph.TupleOf("author", "name", "A"))
	if err != nil || !ok {
		t.Errorf("v1 should match name=A tuple: %v %v", ok, err)
	}
	ok, _ = p.NodeMatches(v1, graph.TupleOf("author", "name", "B"))
	if ok {
		t.Error("v1 should not match name=B")
	}
	ok, _ = p.NodeMatches(v2, graph.TupleOf("", "title", "T", "year", 2006))
	if !ok {
		t.Error("v2 should match year=2006")
	}
	ok, _ = p.NodeMatches(v2, graph.TupleOf("", "year", 1999))
	if ok {
		t.Error("v2 should not match year=1999")
	}
	// Missing attribute: year absent -> null > 2000 -> false, no error.
	ok, err = p.NodeMatches(v2, graph.TupleOf("", "name", "A"))
	if err != nil || ok {
		t.Errorf("missing year: ok=%v err=%v", ok, err)
	}
}

func TestPatternWideWherePushdown(t *testing.T) {
	// graph P { node v1; node v2 } where v1.name="A" and v2.year>2000
	// — the equivalent form of Figure 4.8.
	p := New("P")
	p.AddNode("v1", nil, nil)
	p.AddNode("v2", nil, nil)
	p.Where(expr.And(eq(nm("v1", "name"), lit("A")), gt(nm("v2", "year"), lit(2000))))
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	v1, _ := p.Motif.NodeByName("v1")
	if p.NodePred[v1] == nil {
		t.Error("v1 conjunct not pushed down")
	}
	if p.Global != nil {
		t.Errorf("residual should be empty, got %s", p.Global)
	}
}

func TestPatternQualifiedNames(t *testing.T) {
	// P.v1.name form (pattern-qualified) must push down too.
	p := New("P")
	p.AddNode("v1", nil, nil)
	p.Where(eq(nm("P", "v1", "name"), lit("A")))
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	if p.Global != nil {
		t.Errorf("qualified conjunct not pushed: %s", p.Global)
	}
	ok, _ := p.NodeMatches(0, graph.TupleOf("", "name", "A"))
	if !ok {
		t.Error("should match after qualification")
	}
}

func TestCrossNodePredicateStaysGlobal(t *testing.T) {
	// u1.label = u2.label cannot be pushed down (§4.1).
	p := New("P")
	p.AddNode("u1", nil, nil)
	p.AddNode("u2", nil, nil)
	p.Where(eq(nm("u1", "label"), nm("u2", "label")))
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	if p.Global == nil {
		t.Error("cross-node conjunct must remain global")
	}
	if p.NodePred[0] != nil || p.NodePred[1] != nil {
		t.Error("cross-node conjunct must not be pushed down")
	}
}

func TestGraphAttributeStaysGlobal(t *testing.T) {
	// P.booktitle = "SIGMOD" (Figure 4.12) refers to the matched graph.
	p := New("P")
	p.AddNode("v1", nil, nil)
	p.Where(eq(nm("P", "booktitle"), lit("SIGMOD")))
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	if p.Global == nil {
		t.Error("graph-attribute conjunct must remain global")
	}
}

func TestMotifAttrsBecomePredicates(t *testing.T) {
	// node v2 <author name="A"> — tag plus equality constraint (Fig 4.7).
	p := New("P")
	v := p.AddNode("v2", graph.TupleOf("author", "name", "A"), nil)
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	ok, _ := p.NodeMatches(v, graph.TupleOf("author", "name", "A"))
	if !ok {
		t.Error("matching tag+attr should pass")
	}
	ok, _ = p.NodeMatches(v, graph.TupleOf("", "name", "A"))
	if ok {
		t.Error("missing tag should fail")
	}
	ok, _ = p.NodeMatches(v, graph.TupleOf("author", "name", "B"))
	if ok {
		t.Error("wrong attr should fail")
	}
}

func TestEdgePredicates(t *testing.T) {
	p := New("P")
	a := p.AddNode("a", nil, nil)
	b := p.AddNode("b", nil, nil)
	e := p.AddEdge("e1", a, b, graph.TupleOf("", "kind", "shipping"), nil)
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	ok, _ := p.EdgeMatches(e, graph.TupleOf("", "kind", "shipping"))
	if !ok {
		t.Error("edge with kind=shipping should match")
	}
	ok, _ = p.EdgeMatches(e, graph.TupleOf("", "kind", "billing"))
	if ok {
		t.Error("edge with kind=billing should not match")
	}
}

func TestConstLabelExtraction(t *testing.T) {
	p := New("P")
	a := p.LabelNode("a", "A")
	b := p.AddNode("b", nil, eq(nm("label"), lit("B")))
	c := p.AddNode("c", nil, gt(nm("weight"), lit(3))) // no label constraint
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	if l, ok := p.ConstLabel(a); !ok || l != "A" {
		t.Errorf("ConstLabel(a) = %q,%v", l, ok)
	}
	if l, ok := p.ConstLabel(b); !ok || l != "B" {
		t.Errorf("ConstLabel(b) = %q,%v", l, ok)
	}
	if _, ok := p.ConstLabel(c); ok {
		t.Error("c should have no const label")
	}
}

func TestValidateUnknownVariable(t *testing.T) {
	p := New("P")
	p.AddNode("v1", nil, nil)
	p.Where(eq(nm("v9", "name"), lit("A"))) // v9 undeclared
	if err := p.Compile(); err == nil {
		t.Error("unknown variable should fail validation")
	}
}

func TestCompileIdempotent(t *testing.T) {
	p := fig48(t)
	before := len(expr.Conjuncts(p.NodePred[0]))
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	if after := len(expr.Conjuncts(p.NodePred[0])); after != before {
		t.Errorf("Compile not idempotent: %d -> %d conjuncts", before, after)
	}
}

// TestGraphGate: Compile gates on exactly the residual conjuncts whose names
// all read graph attributes (bare or P-qualified); Global keeps them, and a
// conjunct that also reads a motif element stays out of the gate.
func TestGraphGate(t *testing.T) {
	p := New("P")
	v1 := p.AddNode("v1", nil, nil)
	v2 := p.AddNode("v2", nil, nil)
	p.AddEdge("e", v1, v2, nil, nil)
	p.Where(eq(nm("P", "booktitle"), lit("SIGMOD")))
	p.Where(gt(nm("year"), lit(2000)))
	p.Where(eq(nm("v1", "name"), nm("v2", "name")))
	p.Where(expr.Binary{Op: expr.OpOr, L: gt(nm("year"), lit(2005)), R: eq(nm("v1", "name"), lit("A"))})
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	if n := len(expr.Conjuncts(p.Global)); n != 4 {
		t.Errorf("Global has %d conjuncts, want all 4 residual ones: %s", n, p.Global)
	}
	for _, tc := range []struct {
		attrs *graph.Tuple
		want  bool
	}{
		{graph.TupleOf("", "booktitle", "SIGMOD", "year", 2006), true},
		{graph.TupleOf("", "booktitle", "SIGMOD", "year", 1999), false},
		{graph.TupleOf("", "booktitle", "VLDB", "year", 2006), false},
		{graph.TupleOf("", "booktitle", "SIGMOD"), false}, // year missing
		{graph.TupleOf("", "booktitle", "SIGMOD", "year", "x"), false},
		{nil, false},
	} {
		if got, err := p.GraphHolds(tc.attrs); err != nil || got != tc.want {
			t.Errorf("GraphHolds(%v) = %v, %v; want %v", tc.attrs, got, err, tc.want)
		}
	}
	// An erroring graph conjunct makes the gate report the error.
	q := New("P")
	q.AddNode("v", nil, nil)
	q.Where(gt(expr.Binary{Op: expr.OpDiv, L: nm("P", "year"), R: lit(0)}, lit(1)))
	if err := q.Compile(); err != nil {
		t.Fatal(err)
	}
	if ok, err := q.GraphHolds(graph.TupleOf("", "year", 2000)); ok || err == nil {
		t.Errorf("GraphHolds over year / 0 = %v, %v; want false and an error", ok, err)
	}
	// No graph conjunct: the gate holds trivially.
	if ok, err := fig48(t).GraphHolds(nil); !ok || err != nil {
		t.Errorf("gate of a pattern without graph conjuncts = %v, %v", ok, err)
	}
}
