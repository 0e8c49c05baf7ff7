package algebra

import (
	"context"
	"testing"

	"gqldb/internal/expr"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/pattern"
)

func eq(l, r expr.Expr) expr.Expr  { return expr.Binary{Op: expr.OpEq, L: l, R: r} }
func nm(parts ...string) expr.Expr { return expr.Name{Parts: parts} }
func lit(s string) expr.Expr       { return expr.Lit{Val: graph.String(s)} }

// fig47 is the sample paper graph of Figure 4.7.
func fig47() *graph.Graph {
	g := graph.New("G")
	g.Attrs = graph.NewTuple("inproceedings")
	g.AddNode("v1", graph.TupleOf("", "title", "Title1", "year", 2006))
	g.AddNode("v2", graph.TupleOf("author", "name", "A"))
	g.AddNode("v3", graph.TupleOf("author", "name", "B"))
	return g
}

// fig48 is the graph pattern of Figure 4.8.
func fig48(t *testing.T) *pattern.Pattern {
	t.Helper()
	p := pattern.New("P")
	p.AddNode("v1", nil, eq(nm("name"), lit("A")))
	p.AddNode("v2", nil, expr.Binary{Op: expr.OpGt, L: nm("year"), R: expr.Lit{Val: graph.Int(2000)}})
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSelectionFig49(t *testing.T) {
	// The pattern of Fig 4.8 matches the graph of Fig 4.7 with
	// Φ(P.v1)→G.v2, Φ(P.v2)→G.v1.
	ms, err := SelectionContext(context.Background(), fig48(t), graph.NewCollection(fig47()), match.Options{Exhaustive: true}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	n1, err := ms[0].NodeFor("v1")
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := ms[0].NodeFor("v2")
	if n1.Name != "v2" || n2.Name != "v1" {
		t.Errorf("mapping = v1->%s v2->%s, want v1->v2 v2->v1", n1.Name, n2.Name)
	}
}

// TestTemplateFig411 instantiates the graph template of Figure 4.11:
// T_P = graph { node v1 <label=P.v1.name>; node v2 <label=P.v2.title>;
// edge e1 (v1,v2); } applied to the Fig 4.8/4.7 binding yields nodes
// labelled "A" and "Title1" joined by an edge.
func TestTemplateFig411(t *testing.T) {
	ms, err := SelectionContext(context.Background(), fig48(t), graph.NewCollection(fig47()), match.Options{Exhaustive: true}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &Template{
		Name: "T",
		Members: []TMember{
			TNode{Name: "v1", Attrs: []AttrTemplate{{Name: "label", E: nm("P", "v1", "name")}}},
			TNode{Name: "v2", Attrs: []AttrTemplate{{Name: "label", E: nm("P", "v2", "title")}}},
			TEdge{Name: "e1", From: []string{"v1"}, To: []string{"v2"}},
		},
	}
	out, err := ComposeContext(context.Background(), tmpl, "P", ms, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("composed = %d graphs, want 1", len(out))
	}
	g := out[0]
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("result shape %d/%d, want 2/1", g.NumNodes(), g.NumEdges())
	}
	v1, _ := g.NodeByName("v1")
	v2, _ := g.NodeByName("v2")
	if g.Node(v1).Attrs.GetOr("label").AsString() != "A" {
		t.Errorf("v1 label = %v", g.Node(v1).Attrs.GetOr("label"))
	}
	if g.Node(v2).Attrs.GetOr("label").AsString() != "Title1" {
		t.Errorf("v2 label = %v", g.Node(v2).Attrs.GetOr("label"))
	}
}

func TestCartesianProduct(t *testing.T) {
	g1 := graph.New("G1")
	g1.AddNode("x", graph.TupleOf("", "label", "X"))
	g2 := graph.New("G2")
	a := g2.AddNode("a", nil)
	b := g2.AddNode("b", nil)
	g2.AddEdge("", a, b, nil)
	prod, err := CartesianProductContext(context.Background(), graph.NewCollection(g1, g1), graph.NewCollection(g2), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prod) != 2 {
		t.Fatalf("product size = %d, want 2", len(prod))
	}
	// Each product graph has 3 nodes, 1 edge, constituents unconnected.
	for _, g := range prod {
		if g.NumNodes() != 3 || g.NumEdges() != 1 {
			t.Errorf("product graph shape %d/%d, want 3/1", g.NumNodes(), g.NumEdges())
		}
	}
}

func TestValuedJoinFig410(t *testing.T) {
	// graph { graph G1, G2 } where G1.id = G2.id — constituents with equal
	// graph attribute id.
	mk := func(name string, id int) *graph.Graph {
		g := graph.New(name)
		g.Attrs = graph.TupleOf("", "id", id)
		g.AddNode(name+"n", nil)
		return g
	}
	c := graph.NewCollection(mk("a1", 1), mk("a2", 2))
	d := graph.NewCollection(mk("b1", 1), mk("b2", 3))
	// In the product graph, the left operand's attrs win the merge; join on
	// an attribute both sides carry requires node-level access, so give the
	// graphs id-carrying nodes instead.
	pred := eq(nm("a1n", "gid"), nm("b1n", "gid"))
	_ = pred
	// Simpler: join where the merged graph attr id equals 1 (left wins).
	out, err := ValuedJoinContext(context.Background(), c, d, eq(nm("id"), expr.Lit{Val: graph.Int(1)}), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 { // a1×b1, a1×b2
		t.Errorf("join size = %d, want 2", len(out))
	}
}

func TestValuedJoinOnNodeAttrs(t *testing.T) {
	mk := func(node string, val string) *graph.Graph {
		g := graph.New("g")
		g.AddNode(node, graph.TupleOf("", "k", val))
		return g
	}
	c := graph.NewCollection(mk("x", "1"), mk("x", "2"))
	d := graph.NewCollection(mk("y", "2"), mk("y", "3"))
	out, err := ValuedJoinContext(context.Background(), c, d, eq(nm("x", "k"), nm("y", "k")), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("join size = %d, want 1", len(out))
	}
	g := out[0]
	x, _ := g.NodeByName("x")
	if g.Node(x).Attrs.GetOr("k").AsString() != "2" {
		t.Errorf("joined x.k = %v, want 2", g.Node(x).Attrs.GetOr("k"))
	}
}

func TestSetOperators(t *testing.T) {
	mk := func(label string) *graph.Graph {
		g := graph.New("g")
		g.AddNode("v", graph.TupleOf("", "label", label))
		return g
	}
	c := graph.NewCollection(mk("A"), mk("B"), mk("A")) // duplicate A
	d := graph.NewCollection(mk("B"), mk("C"))
	if got := Union(c, d); len(got) != 3 { // A, B, C
		t.Errorf("union = %d, want 3", len(got))
	}
	if got := Difference(c, d); len(got) != 1 || got[0].Node(0).Attrs.GetOr("label").AsString() != "A" {
		t.Errorf("difference wrong: %d", len(got))
	}
	if got := Intersection(c, d); len(got) != 1 || got[0].Node(0).Attrs.GetOr("label").AsString() != "B" {
		t.Errorf("intersection wrong: %d", len(got))
	}
}

// dblp builds the two-paper DBLP collection of Figure 4.13.
func dblp() graph.Collection {
	g1 := graph.New("G1")
	g1.Attrs = graph.TupleOf("inproceedings", "booktitle", "SIGMOD")
	g1.AddNode("v1", graph.TupleOf("author", "name", "A"))
	g1.AddNode("v2", graph.TupleOf("author", "name", "B"))
	g2 := graph.New("G2")
	g2.Attrs = graph.TupleOf("inproceedings", "booktitle", "SIGMOD")
	g2.AddNode("v1", graph.TupleOf("author", "name", "C"))
	g2.AddNode("v2", graph.TupleOf("author", "name", "D"))
	g2.AddNode("v3", graph.TupleOf("author", "name", "A"))
	return graph.NewCollection(g1, g2)
}

// TestCoauthorshipFig413 runs the Figure 4.12 query at the algebra level:
// iteratively compose each matched author pair into the accumulator with
// name-based unification, and check the final co-authorship graph of
// Figure 4.13: nodes {A,B,C,D}, edges {A-B, C-D, A-C, A-D}.
func TestCoauthorshipFig413(t *testing.T) {
	p := pattern.New("P")
	p.AddNode("v1", graph.NewTuple("author"), nil)
	p.AddNode("v2", graph.NewTuple("author"), nil)
	p.Where(eq(nm("P", "booktitle"), lit("SIGMOD")))
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}

	ms, err := SelectionContext(context.Background(), p, dblp(), match.Options{Exhaustive: true}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each unordered author pair appears twice (both orders); Fig 4.13
	// iterates distinct pairs — keep mappings with v1-index < v2-index.
	var pairs Matched
	for _, m := range ms {
		if m.M.Nodes[0] < m.M.Nodes[1] {
			pairs = append(pairs, m)
		}
	}
	if len(pairs) != 4 { // (A,B), (C,D), (C,A), (D,A)
		t.Fatalf("distinct pairs = %d, want 4", len(pairs))
	}

	tmpl := &Template{
		Name: "C",
		Members: []TMember{
			TGraph{Var: "C"},
			TNode{Ref: []string{"P", "v1"}},
			TNode{Ref: []string{"P", "v2"}},
			TEdge{Name: "e1", From: []string{"P", "v1"}, To: []string{"P", "v2"}},
			TUnify{A: []string{"P", "v1"}, B: []string{"C", "v1"},
				Where: eq(nm("P", "v1", "name"), nm("C", "v1", "name"))},
			TUnify{A: []string{"P", "v2"}, B: []string{"C", "v2"},
				Where: eq(nm("P", "v2", "name"), nm("C", "v2", "name"))},
		},
	}
	acc := graph.New("C")
	for _, m := range pairs {
		out, err := tmpl.Instantiate(map[string]Operand{
			"P": MatchedOperand(m),
			"C": GraphOperand(acc),
		})
		if err != nil {
			t.Fatal(err)
		}
		acc = out
	}
	if acc.NumNodes() != 4 {
		t.Fatalf("co-authorship nodes = %d, want 4\n%s", acc.NumNodes(), acc)
	}
	if acc.NumEdges() != 4 {
		t.Fatalf("co-authorship edges = %d, want 4\n%s", acc.NumEdges(), acc)
	}
	// Check the exact edge set by author names.
	names := map[graph.NodeID]string{}
	for _, n := range acc.Nodes() {
		names[n.ID] = n.Attrs.GetOr("name").AsString()
	}
	want := map[string]bool{"A-B": true, "C-D": true, "A-C": true, "A-D": true}
	for _, e := range acc.Edges() {
		a, b := names[e.From], names[e.To]
		if a > b {
			a, b = b, a
		}
		if !want[a+"-"+b] {
			t.Errorf("unexpected co-author edge %s-%s", a, b)
		}
		delete(want, a+"-"+b)
	}
	if len(want) != 0 {
		t.Errorf("missing co-author edges: %v", want)
	}
}

// TestUnifyWhereVariableNoMatch: when no existing node satisfies the unify
// predicate, the new node stays distinct.
func TestUnifyWhereVariableNoMatch(t *testing.T) {
	acc := graph.New("C")
	acc.AddNode("n1", graph.TupleOf("", "name", "X"))
	tmpl := &Template{
		Name: "C",
		Members: []TMember{
			TGraph{Var: "C"},
			TNode{Name: "fresh", Attrs: []AttrTemplate{{Name: "name", E: lit("Y")}}},
			TUnify{A: []string{"fresh"}, B: []string{"C", "v"},
				Where: eq(nm("fresh", "name"), nm("C", "v", "name"))},
		},
	}
	out, err := tmpl.Instantiate(map[string]Operand{"C": GraphOperand(acc)})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumNodes() != 2 {
		t.Errorf("nodes = %d, want 2 (no unification)", out.NumNodes())
	}
}

// TestConcatenationByUnificationFig44b reproduces Figure 4.4(b): two copies
// of the triangle G1 with unify X.v1,Y.v1 and X.v3,Y.v2 share two nodes,
// giving 4 nodes; the parallel (v1,v3)/(v1,v2) edges merge structurally
// only if attribute-equal — here unlabelled, so 5 distinct edges become 5
// with one duplicate removed.
func TestConcatenationByUnificationFig44b(t *testing.T) {
	tri := graph.New("G1")
	v1 := tri.AddNode("v1", nil)
	v2 := tri.AddNode("v2", nil)
	v3 := tri.AddNode("v3", nil)
	tri.AddEdge("e1", v1, v2, nil)
	tri.AddEdge("e2", v2, v3, nil)
	tri.AddEdge("e3", v3, v1, nil)

	tmpl := &Template{
		Name: "G3",
		Members: []TMember{
			TGraph{Var: "X"},
			TGraph{Var: "Y"},
			TUnify{A: []string{"Y", "v1"}, B: []string{"X", "v1"}},
			TUnify{A: []string{"Y", "v2"}, B: []string{"X", "v3"}},
		},
	}
	out, err := tmpl.Instantiate(map[string]Operand{
		"X": GraphOperand(tri),
		"Y": GraphOperand(tri),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4.4(b): v1, v2, v3(=Y.v2 unified), Y.v3 -> 4 nodes; edges:
	// X.e1, X.e2, X.e3, Y.e2, Y.e3 with Y.e1 unified into X.e3 -> 5 edges.
	if out.NumNodes() != 4 {
		t.Errorf("nodes = %d, want 4\n%s", out.NumNodes(), out)
	}
	if out.NumEdges() != 5 {
		t.Errorf("edges = %d, want 5\n%s", out.NumEdges(), out)
	}
}

// TestConcatenationByEdgesFig44a reproduces Figure 4.4(a): two triangles
// joined by two new edges — 6 nodes, 8 edges.
func TestConcatenationByEdgesFig44a(t *testing.T) {
	tri := graph.New("G1")
	v1 := tri.AddNode("v1", nil)
	v2 := tri.AddNode("v2", nil)
	v3 := tri.AddNode("v3", nil)
	tri.AddEdge("e1", v1, v2, nil)
	tri.AddEdge("e2", v2, v3, nil)
	tri.AddEdge("e3", v3, v1, nil)
	tmpl := &Template{
		Name: "G2",
		Members: []TMember{
			TGraph{Var: "X"},
			TGraph{Var: "Y"},
			TEdge{Name: "e4", From: []string{"X", "v1"}, To: []string{"Y", "v1"}},
			TEdge{Name: "e5", From: []string{"X", "v3"}, To: []string{"Y", "v2"}},
		},
	}
	out, err := tmpl.Instantiate(map[string]Operand{
		"X": GraphOperand(tri),
		"Y": GraphOperand(tri),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumNodes() != 6 || out.NumEdges() != 8 {
		t.Errorf("shape = %d/%d, want 6/8\n%s", out.NumNodes(), out.NumEdges(), out)
	}
}

func TestTemplateErrors(t *testing.T) {
	tmpl := &Template{Name: "T", Members: []TMember{TGraph{Var: "missing"}}}
	if _, err := tmpl.Instantiate(nil); err == nil {
		t.Error("unbound graph operand should error")
	}
	tmpl = &Template{Name: "T", Members: []TMember{
		TEdge{From: []string{"nope"}, To: []string{"nope2"}},
	}}
	if _, err := tmpl.Instantiate(nil); err == nil {
		t.Error("edge between unknown nodes should error")
	}
}

// embedFixture is a graph with node, edge and graph attributes, directed
// or not, and the matches of a pattern a(A)-b(B)-c over it.
func embedFixture(t *testing.T, directed bool) Matched {
	t.Helper()
	g := graph.New("G")
	if directed {
		g = graph.NewDirected("G")
	}
	g.Attrs = graph.TupleOf("paper", "year", 2008)
	var ids []graph.NodeID
	for i := 0; i < 6; i++ {
		ids = append(ids, g.AddNode("", graph.TupleOf("author", "label", []string{"A", "B"}[i%2], "rank", i)))
	}
	for i := range ids {
		for j := range ids {
			if i != j && (i+j)%3 != 0 {
				g.AddEdge("", ids[i], ids[j], graph.TupleOf("", "w", i*10+j))
			}
		}
	}
	p := pattern.New("P")
	if directed {
		p = pattern.NewDirected("P")
	}
	a, b, c := p.LabelNode("a", "A"), p.LabelNode("b", "B"), p.AddNode("c", nil, nil)
	p.AddEdge("ab", a, b, nil, nil)
	p.AddEdge("cb", c, b, nil, nil)
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	ms, err := SelectionContext(context.Background(), p, graph.NewCollection(g), match.Options{Exhaustive: true}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("degenerate fixture: no matches")
	}
	return ms
}

// TestEmbedMatchedEqualsInduced: embedding a matched operand (graph P;)
// gives the same graph as embedding its InducedGraph view, on directed and
// undirected graphs with node, edge and graph attributes, whatever else the
// template declares around it.
func TestEmbedMatchedEqualsInduced(t *testing.T) {
	tmpl := &Template{Name: "T", Members: []TMember{
		TNode{Name: "x"},
		TGraph{Var: "P"},
		TEdge{Name: "e", From: []string{"x"}, To: []string{"P", "a"}},
	}}
	for _, directed := range []bool{false, true} {
		for i, m := range embedFixture(t, directed) {
			got, err := tmpl.Instantiate(map[string]Operand{"P": MatchedOperand(m)})
			if err != nil {
				t.Fatal(err)
			}
			want, err := tmpl.Instantiate(map[string]Operand{"P": GraphOperand(m.InducedGraph())})
			if err != nil {
				t.Fatal(err)
			}
			if got.Signature() != want.Signature() || got.String() != want.String() {
				t.Fatalf("directed=%v match %d:\n%s\nwant\n%s", directed, i, got, want)
			}
		}
	}
}

// TestCompactSkipsOnlyIdentity: compact returns the expanded graph itself
// only where the rebuild would reproduce it exactly — no unification,
// every edge from its lower node, no parallel edges — and otherwise the
// rebuild; the two always agree. The fixture's pattern declares c->b, so
// embedding it alone needs the rebuild's endpoint swap; declaring a node
// first shifts the IDs so the same edges run forwards.
func TestCompactSkipsOnlyIdentity(t *testing.T) {
	ms := embedFixture(t, false)
	cases := []struct {
		name string
		tmpl *Template
		skip bool
	}{
		{"embed, reversed edge", &Template{Members: []TMember{TGraph{Var: "P"}}}, false},
		{"forward edges", &Template{Members: []TMember{
			TNode{Name: "x"}, TNode{Name: "y"},
			TEdge{From: []string{"x"}, To: []string{"y"}},
			TEdge{From: []string{"y"}, To: []string{"P", "a"}},
		}}, true},
		{"parallel edges", &Template{Members: []TMember{
			TNode{Name: "x"}, TNode{Name: "y"},
			TEdge{From: []string{"x"}, To: []string{"y"}},
			TEdge{From: []string{"x"}, To: []string{"y"}},
		}}, false},
		{"backward edge", &Template{Members: []TMember{
			TNode{Name: "x"}, TNode{Name: "y"},
			TEdge{From: []string{"y"}, To: []string{"x"}},
		}}, false},
		{"unified", &Template{Members: []TMember{
			TGraph{Var: "P"}, TNode{Name: "x"},
			TUnify{A: []string{"x"}, B: []string{"P", "c"}},
		}}, false},
	}
	for _, c := range cases {
		for i, m := range ms {
			ins, err := c.tmpl.expand(map[string]Operand{"P": MatchedOperand(m)})
			if err != nil {
				t.Fatal(err)
			}
			if ins.compacted() != c.skip {
				t.Fatalf("%s: compacted() = %v, want %v", c.name, !c.skip, c.skip)
			}
			got, want := ins.compact(), ins.rebuild()
			if got.Signature() != want.Signature() || got.String() != want.String() {
				t.Fatalf("%s match %d:\n%s\nwant\n%s", c.name, i, got, want)
			}
		}
	}
}
