package datalog

import (
	"math/rand"
	"testing"

	"gqldb/internal/expr"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/pattern"
)

func TestAssertDedup(t *testing.T) {
	db := NewDB()
	if !db.Assert("p", graph.Int(1)) {
		t.Error("first assert should be new")
	}
	if db.Assert("p", graph.Int(1)) {
		t.Error("duplicate assert should not be new")
	}
	if db.Count("p") != 1 {
		t.Errorf("Count = %d", db.Count("p"))
	}
}

// TestTransitiveClosure exercises recursion: path(X,Y) :- edge(X,Y);
// path(X,Z) :- path(X,Y), edge(Y,Z).
func TestTransitiveClosure(t *testing.T) {
	db := NewDB()
	chain := []int64{1, 2, 3, 4, 5}
	for i := 0; i+1 < len(chain); i++ {
		db.Assert("e", graph.Int(chain[i]), graph.Int(chain[i+1]))
	}
	rules := []Rule{
		{Head: Atom{Pred: "path", Args: []Term{V("X"), V("Y")}},
			Body: []Atom{{Pred: "e", Args: []Term{V("X"), V("Y")}}}},
		{Head: Atom{Pred: "path", Args: []Term{V("X"), V("Z")}},
			Body: []Atom{
				{Pred: "path", Args: []Term{V("X"), V("Y")}},
				{Pred: "e", Args: []Term{V("Y"), V("Z")}},
			}},
	}
	n, err := Eval(db, rules)
	if err != nil {
		t.Fatal(err)
	}
	// Paths: all ordered pairs i<j over 5 nodes = 10.
	if db.Count("path") != 10 {
		t.Errorf("paths = %d, want 10 (derived %d)", db.Count("path"), n)
	}
}

func TestBuiltins(t *testing.T) {
	db := NewDB()
	db.Assert("n", graph.Int(1))
	db.Assert("n", graph.Int(5))
	db.Assert("n", graph.Int(9))
	rules := []Rule{{
		Head:     Atom{Pred: "big", Args: []Term{V("X")}},
		Body:     []Atom{{Pred: "n", Args: []Term{V("X")}}},
		Builtins: []Builtin{{Op: Gt, L: V("X"), R: C(graph.Int(4))}},
	}}
	if _, err := Eval(db, rules); err != nil {
		t.Fatal(err)
	}
	if db.Count("big") != 2 {
		t.Errorf("big = %d, want 2", db.Count("big"))
	}
}

func TestQueryJoin(t *testing.T) {
	db := NewDB()
	db.Assert("parent", graph.String("a"), graph.String("b"))
	db.Assert("parent", graph.String("b"), graph.String("c"))
	rows, err := Query(db,
		[]Atom{
			{Pred: "parent", Args: []Term{V("X"), V("Y")}},
			{Pred: "parent", Args: []Term{V("Y"), V("Z")}},
		}, nil, []string{"X", "Z"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsString() != "a" || rows[0][1].AsString() != "c" {
		t.Errorf("grandparents = %v", rows)
	}
}

// fig414 checks the translation of Figure 4.14.
func TestGraphToFactsFig414(t *testing.T) {
	g := graph.New("G")
	g.Attrs = graph.TupleOf("", "attr1", "value1")
	v1 := g.AddNode("v1", nil)
	v2 := g.AddNode("v2", nil)
	g.AddNode("v3", nil)
	g.AddEdge("e1", v1, v2, nil)
	db := NewDB()
	GraphToFacts(db, g)
	if db.Count("graph") != 1 {
		t.Errorf("graph facts = %d", db.Count("graph"))
	}
	if db.Count("node") != 3 {
		t.Errorf("node facts = %d", db.Count("node"))
	}
	// Undirected edge written twice with permuted endpoints.
	if db.Count("edge") != 2 {
		t.Errorf("edge facts = %d, want 2", db.Count("edge"))
	}
	if db.Count("attribute") != 1 {
		t.Errorf("attribute facts = %d", db.Count("attribute"))
	}
}

func TestDirectedGraphFactsNotDoubled(t *testing.T) {
	g := graph.NewDirected("D")
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge("e", a, b, nil)
	db := NewDB()
	GraphToFacts(db, g)
	if db.Count("edge") != 1 {
		t.Errorf("directed edge facts = %d, want 1", db.Count("edge"))
	}
}

// patternMatchesViaDatalog translates the pattern to a rule, evaluates, and
// counts Pattern facts for the graph.
func patternMatchesViaDatalog(t *testing.T, p *pattern.Pattern, g *graph.Graph) int {
	t.Helper()
	db := NewDB()
	GraphToFacts(db, g)
	r, err := PatternToRule(p, "Pattern")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(db, []Rule{r}); err != nil {
		t.Fatal(err)
	}
	return db.Count("Pattern")
}

// TestPatternRuleFig415: a pattern with an attribute comparison translates
// and matches per Figure 4.15.
func TestPatternRuleFig415(t *testing.T) {
	g := graph.New("G")
	g.Attrs = graph.TupleOf("", "attr1", 10)
	v2 := g.AddNode("v2", nil)
	v3 := g.AddNode("v3", nil)
	g.AddEdge("e1", v3, v2, nil)

	p := pattern.New("P")
	a := p.AddNode("v2", nil, nil)
	b := p.AddNode("v3", nil, nil)
	p.AddEdge("e1", b, a, nil, nil)
	p.Where(expr.Binary{Op: expr.OpGt,
		L: expr.Name{Parts: []string{"P", "attr1"}},
		R: expr.Lit{Val: graph.Int(5)}})
	_ = a
	_ = b
	if got := patternMatchesViaDatalog(t, p, g); got == 0 {
		t.Error("pattern should match via Datalog")
	}
	// Tighten the predicate so it fails.
	p2 := pattern.New("P")
	a2 := p2.AddNode("v2", nil, nil)
	b2 := p2.AddNode("v3", nil, nil)
	p2.AddEdge("e1", b2, a2, nil, nil)
	p2.Where(expr.Binary{Op: expr.OpGt,
		L: expr.Name{Parts: []string{"P", "attr1"}},
		R: expr.Lit{Val: graph.Int(50)}})
	if got := patternMatchesViaDatalog(t, p2, g); got != 0 {
		t.Error("pattern should not match with attr1 > 50")
	}
}

// TestTheorem46 cross-validates the Datalog translation against the native
// matcher on random labelled graphs: a pattern matches iff its rule
// derives, and the number of Pattern facts equals the number of exhaustive
// mappings (head args enumerate the node bindings).
func TestTheorem46(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 25; trial++ {
		g := graph.New("G")
		n := 6 + rng.Intn(5)
		for i := 0; i < n; i++ {
			g.AddNode("", graph.TupleOf("", "label", string(rune('A'+rng.Intn(3)))))
		}
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdgeBetween(graph.NodeID(u), graph.NodeID(v)) {
				g.AddEdge("", graph.NodeID(u), graph.NodeID(v), nil)
			}
		}
		p := pattern.New("P")
		k := 2 + rng.Intn(2)
		var ids []graph.NodeID
		for i := 0; i < k; i++ {
			ids = append(ids, p.LabelNode("", string(rune('A'+rng.Intn(3)))))
		}
		for i := 1; i < k; i++ {
			p.AddEdge("", ids[rng.Intn(i)], ids[i], nil, nil)
		}
		native, _, err := match.Find(p, g, nil, match.Options{Exhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := patternMatchesViaDatalog(t, p, g); got != len(native) {
			t.Fatalf("trial %d: datalog derives %d, native finds %d\npattern %s\ngraph %s",
				trial, got, len(native), p, g)
		}
	}
}

func TestPatternRuleUnsupported(t *testing.T) {
	p := pattern.New("P")
	p.AddNode("v1", nil, expr.Binary{Op: expr.OpOr,
		L: expr.Binary{Op: expr.OpEq, L: expr.Name{Parts: []string{"x"}}, R: expr.Lit{Val: graph.Int(1)}},
		R: expr.Binary{Op: expr.OpEq, L: expr.Name{Parts: []string{"x"}}, R: expr.Lit{Val: graph.Int(2)}},
	})
	if _, err := PatternToRule(p, "Q"); err == nil {
		t.Error("disjunctive predicate should be rejected")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Head:     Atom{Pred: "q", Args: []Term{V("X")}},
		Body:     []Atom{{Pred: "p", Args: []Term{V("X"), CS("a")}}},
		Builtins: []Builtin{{Op: Ne, L: V("X"), R: C(graph.Int(0))}},
	}
	want := `q(X) :- p(X, "a"), X != 0.`
	if r.String() != want {
		t.Errorf("String = %s, want %s", r.String(), want)
	}
}

// TestMatchAtomCrossKind: matchAtom compares values, not representations,
// so an Int(1) in a rule matches a fact's Float(1.0) both as a constant and
// through an already-bound variable.
func TestMatchAtomCrossKind(t *testing.T) {
	fact := []graph.Value{graph.Float(1)}
	if matchAtom(Atom{Pred: "p", Args: []Term{C(graph.Int(1))}}, fact, binding{}) == nil {
		t.Error("constant Int(1) does not match fact Float(1.0)")
	}
	if matchAtom(Atom{Pred: "p", Args: []Term{V("X")}}, fact, binding{"X": graph.Int(1)}) == nil {
		t.Error("variable bound to Int(1) does not match fact Float(1.0)")
	}
}
