package exec

import (
	"context"
	"testing"
	"time"

	"gqldb/internal/graph"
	"gqldb/internal/parser"
	"gqldb/internal/store"
)

// docs is the plain document map most of these tests start from; newEngine
// wraps it into an unsharded, unindexed store.
type docs = map[string]graph.Collection

func newEngine(m docs) *Engine { return NewOver(store.FromMap(m)) }

func run(t *testing.T, store docs, src string) *Result {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := newEngine(store).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// dblp is the collection of Figure 4.13.
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

// TestCoauthorshipQueryFig412 runs the full Figure 4.12 program through
// parser and engine and checks the Figure 4.13 result.
func TestCoauthorshipQueryFig412(t *testing.T) {
	src := `
	graph P {
		node v1 <author>;
		node v2 <author>;
	} where P.booktitle="SIGMOD";
	C := graph {};
	for P exhaustive in doc("DBLP") let C := graph {
		graph C;
		node P.v1, P.v2;
		edge e1 (P.v1, P.v2);
		unify P.v1, C.v1 where P.v1.name=C.v1.name;
		unify P.v2, C.v2 where P.v2.name=C.v2.name;
	};`
	res := run(t, docs{"DBLP": dblp()}, src)
	c, ok := res.Vars["C"]
	if !ok {
		t.Fatal("variable C not set")
	}
	if c.NumNodes() != 4 {
		t.Fatalf("co-authors = %d, want 4\n%s", c.NumNodes(), c)
	}
	if c.NumEdges() != 4 {
		t.Fatalf("co-author edges = %d, want 4\n%s", c.NumEdges(), c)
	}
	// Edge set by author names: A-B, C-D, A-C, A-D.
	names := map[graph.NodeID]string{}
	for _, n := range c.Nodes() {
		names[n.ID] = n.Attrs.GetOr("name").AsString()
	}
	want := map[string]bool{"A-B": true, "C-D": true, "A-C": true, "A-D": true}
	for _, e := range c.Edges() {
		a, b := names[e.From], names[e.To]
		if a > b {
			a, b = b, a
		}
		if !want[a+"-"+b] {
			t.Errorf("unexpected edge %s-%s", a, b)
		}
		delete(want, a+"-"+b)
	}
	if len(want) > 0 {
		t.Errorf("missing edges %v", want)
	}
}

// TestBooktitleFilter: the graph-level predicate excludes non-SIGMOD papers.
func TestBooktitleFilter(t *testing.T) {
	coll := dblp()
	g3 := graph.New("G3")
	g3.Attrs = graph.TupleOf("inproceedings", "booktitle", "VLDB")
	g3.AddNode("v1", graph.TupleOf("author", "name", "X"))
	g3.AddNode("v2", graph.TupleOf("author", "name", "Y"))
	coll = append(coll, g3)
	src := `
	graph P { node v1 <author>; node v2 <author>; } where P.booktitle="SIGMOD";
	C := graph {};
	for P exhaustive in doc("DBLP") let C := graph {
		graph C;
		node P.v1, P.v2;
		edge e1 (P.v1, P.v2);
		unify P.v1, C.v1 where P.v1.name=C.v1.name;
		unify P.v2, C.v2 where P.v2.name=C.v2.name;
	};`
	res := run(t, docs{"DBLP": coll}, src)
	c := res.Vars["C"]
	for _, n := range c.Nodes() {
		if nm := n.Attrs.GetOr("name").AsString(); nm == "X" || nm == "Y" {
			t.Errorf("VLDB author %s leaked into result", nm)
		}
	}
}

// TestReturnClause: a return-based FLWR produces one output graph per match.
func TestReturnClause(t *testing.T) {
	src := `
	for graph Q { node v1 <author>; } exhaustive in doc("DBLP")
	return graph R {
		node u <label=Q.v1.name>;
	};`
	res := run(t, docs{"DBLP": dblp()}, src)
	if len(res.Out) != 5 { // 2 + 3 author nodes
		t.Fatalf("out = %d graphs, want 5", len(res.Out))
	}
	labels := map[string]int{}
	for _, g := range res.Out {
		labels[g.Node(0).Attrs.GetOr("label").AsString()]++
	}
	if labels["A"] != 2 || labels["B"] != 1 || labels["C"] != 1 || labels["D"] != 1 {
		t.Errorf("labels = %v", labels)
	}
}

// TestNonExhaustive: without 'exhaustive', one match per graph.
func TestNonExhaustive(t *testing.T) {
	src := `
	for graph Q { node v1 <author>; } in doc("DBLP")
	return graph R { node u <label=Q.v1.name>; };`
	res := run(t, docs{"DBLP": dblp()}, src)
	if len(res.Out) != 2 { // one per paper
		t.Fatalf("out = %d graphs, want 2", len(res.Out))
	}
}

// TestFLWRWhere: the for-level where clause filters matches.
func TestFLWRWhere(t *testing.T) {
	src := `
	for graph Q { node v1 <author>; } exhaustive in doc("DBLP")
	where Q.v1.name = "A"
	return graph R { node u <label=Q.v1.name>; };`
	res := run(t, docs{"DBLP": dblp()}, src)
	if len(res.Out) != 2 { // author A appears in both papers
		t.Fatalf("out = %d, want 2", len(res.Out))
	}
}

// TestRecursivePatternQuery: a recursive Path pattern matches label chains.
func TestRecursivePatternQuery(t *testing.T) {
	g := graph.New("G")
	var ids []graph.NodeID
	for i := 0; i < 4; i++ {
		ids = append(ids, g.AddNode("", graph.TupleOf("", "kind", "n")))
	}
	g.AddEdge("", ids[0], ids[1], nil)
	g.AddEdge("", ids[1], ids[2], nil)
	g.AddEdge("", ids[2], ids[3], nil)
	src := `
	graph Path {
		graph Path;
		node v1;
		edge e1 (v1, Path.v1);
		export Path.v2 as v2;
	} | {
		node v1, v2;
		edge e1 (v1, v2);
	};
	for Path exhaustive in doc("G")
	return graph R { node u; };`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(docs{"G": graph.NewCollection(g)})
	eng.DeriveDepth = 3
	res, err := eng.RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	// Path of 2 nodes: 6 embeddings (3 edges × 2 directions); 3 nodes: 4;
	// 4 nodes: 2. Total 12 output graphs.
	if len(res.Out) != 12 {
		t.Fatalf("out = %d, want 12", len(res.Out))
	}
}

func TestAssignAndReference(t *testing.T) {
	src := `
	X := graph { node a <label="A">; };
	Y := X;`
	res := run(t, docs{}, src)
	if res.Vars["Y"].NumNodes() != 1 {
		t.Error("Y should copy X")
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		`for P in doc("DBLP") return graph {};`,                   // undeclared pattern
		`for graph Q { node v; } in doc("nope") return graph {};`, // unknown doc
		`Y := X;`, // undefined variable
	}
	for _, src := range cases {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := newEngine(docs{"DBLP": dblp()}).RunContext(context.Background(), prog); err == nil {
			t.Errorf("Run(%q): want error", src)
		}
	}
}

// TestTemplateGraphAttrs: a return template can compute the result graph's
// own tuple from the binding.
func TestTemplateGraphAttrs(t *testing.T) {
	src := `
	for graph Q { node v1 <author>; } exhaustive in doc("DBLP")
	return graph R <derived who=Q.v1.name> {
		node u;
	};`
	res := run(t, docs{"DBLP": dblp()}, src)
	if len(res.Out) != 5 {
		t.Fatalf("out = %d", len(res.Out))
	}
	for _, g := range res.Out {
		if g.Attrs == nil || g.Attrs.Tag != "derived" {
			t.Fatalf("graph tuple missing: %v", g.Attrs)
		}
		if g.Attrs.GetOr("who").AsString() == "" {
			t.Error("computed graph attribute missing")
		}
	}
}

// TestLetWithoutPriorAssign: a let-clause may target a fresh variable; the
// template must not reference it then.
func TestLetWithoutPriorAssign(t *testing.T) {
	src := `
	for graph Q { node v1 <author>; } in doc("DBLP")
	let Z := graph { node u <label=Q.v1.name>; };`
	res := run(t, docs{"DBLP": dblp()}, src)
	z := res.Vars["Z"]
	if z == nil || z.NumNodes() != 1 {
		t.Fatalf("Z = %v", z)
	}
}

// TestCollectionIndexFiltering: the store-built path index must not change
// query results while skipping non-candidate graphs.
func TestCollectionIndexFiltering(t *testing.T) {
	coll := dblp()
	src := `
	for graph Q { node v1 <author>; node v2 <author>; } exhaustive in doc("DBLP")
	return graph R { node u <a=Q.v1.name, b=Q.v2.name>; };`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := newEngine(docs{"DBLP": coll}).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	ds := store.New(store.Options{IndexMaxLen: 2})
	ds.RegisterDoc("DBLP", coll)
	indexed, err := NewOver(ds).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed.Out) != len(plain.Out) {
		t.Fatalf("index changed results: %d vs %d", len(indexed.Out), len(plain.Out))
	}
}

func TestEngineRequestScopedOptions(t *testing.T) {
	base := newEngine(docs{})
	base.Workers = 2
	base.SlowQuery = time.Second

	// Zero-value options inherit everything.
	cp := base.Request(RequestOptions{})
	if cp == base {
		t.Fatal("Request must return a copy, not the shared engine")
	}
	if cp.Workers != 2 || cp.SlowQuery != time.Second || cp.Trace {
		t.Fatalf("inherited copy = workers %d slow %v trace %v", cp.Workers, cp.SlowQuery, cp.Trace)
	}

	// Overrides land on the copy and never touch the shared engine.
	cp = base.Request(RequestOptions{Workers: -1, Trace: true, SlowQuery: time.Millisecond})
	if cp.Workers != -1 || !cp.Trace || cp.SlowQuery != time.Millisecond {
		t.Fatalf("override copy = workers %d slow %v trace %v", cp.Workers, cp.SlowQuery, cp.Trace)
	}
	if base.Workers != 2 || base.Trace || base.SlowQuery != time.Second {
		t.Fatalf("shared engine mutated: workers %d slow %v trace %v", base.Workers, base.SlowQuery, base.Trace)
	}
}
