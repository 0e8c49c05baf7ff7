package sqlbase

import (
	"math/rand"
	"strings"
	"testing"

	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/pattern"
)

func mustInsert(t *testing.T, tb *Table, vals ...graph.Value) {
	t.Helper()
	if err := tb.Insert(vals...); err != nil {
		t.Fatal(err)
	}
}

func TestInsertArityMismatch(t *testing.T) {
	v := NewTable("V", "vid", "label")
	if err := v.Insert(graph.Int(0)); err == nil {
		t.Error("arity mismatch should error, not panic")
	}
	if len(v.Rows) != 0 {
		t.Errorf("failed insert must not add rows; got %d", len(v.Rows))
	}
}

func TestTableInsertProbe(t *testing.T) {
	v := NewTable("V", "vid", "label")
	if err := v.CreateIndex("label"); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, v, graph.Int(0), graph.String("A"))
	mustInsert(t, v, graph.Int(1), graph.String("B"))
	mustInsert(t, v, graph.Int(2), graph.String("A"))
	c, _ := v.Col("label")
	rows, ok := v.probe(c, graph.String("A"))
	if !ok || len(rows) != 2 {
		t.Errorf("probe(A) = %v, %v", rows, ok)
	}
	// Index created after rows exist must cover them.
	if err := v.CreateIndex("vid"); err != nil {
		t.Fatal(err)
	}
	cv, _ := v.Col("vid")
	rows, ok = v.probe(cv, graph.Int(1))
	if !ok || len(rows) != 1 {
		t.Errorf("probe(vid=1) = %v, %v", rows, ok)
	}
	if _, err := v.Col("nope"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestParseSQL(t *testing.T) {
	st, err := ParseSQL(`SELECT V1.vid, V2.vid FROM V AS V1, V AS V2, E AS E1
		WHERE V1.label = 'A' AND V2.label = 'B'
		AND V1.vid = E1.vid1 AND V2.vid = E1.vid2 AND V1.vid <> V2.vid;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cols) != 2 || len(st.From) != 3 || len(st.Where) != 5 {
		t.Errorf("parsed shape %d/%d/%d", len(st.Cols), len(st.From), len(st.Where))
	}
	if st.From[2].Alias != "E1" || st.From[2].Table != "E" {
		t.Errorf("from[2] = %+v", st.From[2])
	}
}

func TestParseSQLErrors(t *testing.T) {
	bad := []string{
		`FROM V`,
		`SELECT x FROM V`,             // bare column
		`SELECT v.x FROM`,             // missing table
		`SELECT v.x FROM V WHERE v.x`, // missing operator
		`SELECT v.x FROM V WHERE v.x = 'unterminated`,
		`SELECT v.x FROM V; garbage`,
	}
	for _, q := range bad {
		if _, err := ParseSQL(q); err == nil {
			t.Errorf("ParseSQL(%q): want error", q)
		}
	}
}

// fig416 is the running-example graph.
func fig416() *graph.Graph {
	g := graph.New("G")
	add := func(name, label string) graph.NodeID {
		return g.AddNode(name, graph.TupleOf("", "label", label))
	}
	a1 := add("A1", "A")
	a2 := add("A2", "A")
	b1 := add("B1", "B")
	b2 := add("B2", "B")
	c1 := add("C1", "C")
	c2 := add("C2", "C")
	g.AddEdge("", a1, b1, nil)
	g.AddEdge("", b1, c2, nil)
	g.AddEdge("", c2, a1, nil)
	g.AddEdge("", a1, c1, nil)
	g.AddEdge("", b2, c2, nil)
	g.AddEdge("", b2, a2, nil)
	return g
}

func trianglePattern() *pattern.Pattern {
	p := pattern.New("P")
	a := p.LabelNode("a", "A")
	b := p.LabelNode("b", "B")
	c := p.LabelNode("c", "C")
	p.AddEdge("", a, b, nil, nil)
	p.AddEdge("", b, c, nil, nil)
	p.AddEdge("", c, a, nil, nil)
	return p
}

// TestFig42Query runs the paper's own SQL query (Figure 4.2) against the
// Figure 4.1 graph and finds the single triangle.
func TestFig42Query(t *testing.T) {
	db := NewDB()
	if err := db.LoadGraph(fig416()); err != nil {
		t.Fatal(err)
	}
	rows, err := db.ExecSQL(`
		SELECT V1.vid, V2.vid, V3.vid
		FROM V AS V1, V AS V2, V AS V3,
		     E AS E1, E AS E2, E AS E3
		WHERE V1.label = 'A' AND V2.label = 'B' AND V3.label = 'C'
		  AND V1.vid = E1.vid1 AND V1.vid = E3.vid1
		  AND V2.vid = E1.vid2 AND V2.vid = E2.vid1
		  AND V3.vid = E2.vid2 AND V3.vid = E3.vid2
		  AND V1.vid <> V2.vid AND V1.vid <> V3.vid
		  AND V2.vid <> V3.vid;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1: %v", len(rows), rows)
	}
	// A1=0, B1=2, C2=5.
	if rows[0][0].AsInt() != 0 || rows[0][1].AsInt() != 2 || rows[0][2].AsInt() != 5 {
		t.Errorf("row = %v, want [0 2 5]", rows[0])
	}
}

func TestPatternToSQLShape(t *testing.T) {
	q, err := PatternToSQL(trianglePattern())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SELECT V1.vid, V2.vid, V3.vid", "E AS E1", "V1.label = 'A'", "V1.vid <> V2.vid"} {
		if !strings.Contains(q, want) {
			t.Errorf("query missing %q:\n%s", want, q)
		}
	}
	// An unlabelled node joins and stays injective, with no label condition.
	p := pattern.New("P")
	p.AddNode("x", graph.TupleOf("", "label", "A"), nil)
	p.AddNode("y", nil, nil)
	q, err = PatternToSQL(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q, "V1.label = 'A'") || strings.Contains(q, "V2.label") || !strings.Contains(q, "V1.vid <> V2.vid") {
		t.Errorf("partially labelled pattern:\n%s", q)
	}
	// Any other node constraint is not encodable.
	p = pattern.New("P")
	p.AddNode("x", graph.TupleOf("", "w", graph.Int(1)), nil)
	if _, err := PatternToSQL(p); err == nil {
		t.Error("a non-label node constraint should not translate")
	}
	// Nor is a tuple tag on a node, or an attribute constraint on an edge:
	// a bare endpoint join would answer matches the pattern excludes.
	p = pattern.New("P")
	p.AddNode("x", graph.TupleOf("author", "label", "A"), nil)
	if _, err := PatternToSQL(p); err == nil {
		t.Error("a tagged node should not translate")
	}
	p = pattern.New("P")
	x := p.AddNode("x", graph.TupleOf("", "label", "A"), nil)
	y := p.AddNode("y", graph.TupleOf("", "label", "B"), nil)
	p.AddEdge("e", x, y, graph.TupleOf("", "w", graph.Int(1)), nil)
	if _, err := PatternToSQL(p); err == nil {
		t.Error("an edge attribute constraint should not translate")
	}
}

// TestAgainstNativeMatcher: the SQL path and the native matcher agree on
// exhaustive match counts over random labelled graphs.
func TestAgainstNativeMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		g := graph.New("G")
		n := 8 + rng.Intn(8)
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
		db := NewDB()
		if err := db.LoadGraph(g); err != nil {
			t.Fatal(err)
		}
		rows, err := db.MatchPattern(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(native) {
			t.Fatalf("trial %d: SQL %d rows, native %d matches\npattern %s", trial, len(rows), len(native), p)
		}
	}
}

// TestQuotedLabelRoundTrip: labels containing single quotes must survive
// the PatternToSQL → ParseSQL bridge. PatternToSQL always emitted the
// standard doubled-single-quote escape, but the lexer used to stop at the
// first quote, so MatchPattern failed on any label with an apostrophe.
func TestQuotedLabelRoundTrip(t *testing.T) {
	g := graph.New("G")
	a := g.AddNode("a", graph.TupleOf("", "label", "O'Brien"))
	b := g.AddNode("b", graph.TupleOf("", "label", "it's"))
	g.AddNode("c", graph.TupleOf("", "label", "plain"))
	g.AddEdge("", a, b, nil)

	p := pattern.New("P")
	pa := p.LabelNode("x", "O'Brien")
	pb := p.LabelNode("y", "it's")
	p.AddEdge("", pa, pb, nil, nil)

	q, err := PatternToSQL(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q, "'O''Brien'") {
		t.Fatalf("PatternToSQL must ''-escape quotes:\n%s", q)
	}
	if _, err := ParseSQL(q); err != nil {
		t.Fatalf("bridge output does not parse: %v\n%s", err, q)
	}

	db := NewDB()
	if err := db.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	rows, err := db.MatchPattern(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	native, _, err := match.Find(p, g, nil, match.Options{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(native) != 1 {
		t.Fatalf("SQL %d rows, native %d matches, want 1 each", len(rows), len(native))
	}
}

func TestParseSQLEscapedQuote(t *testing.T) {
	st, err := ParseSQL(`SELECT v.x FROM V AS v WHERE v.x = 'a''b' AND v.x <> '''';`)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Where[0].R.Lit.Str; got != "a'b" {
		t.Errorf("escaped literal = %q, want %q", got, "a'b")
	}
	if got := st.Where[1].R.Lit.Str; got != "'" {
		t.Errorf("double-escape literal = %q, want %q", got, "'")
	}
	// A lone trailing escape is an unterminated literal, not an empty one.
	if _, err := ParseSQL(`SELECT v.x FROM V AS v WHERE v.x = ''';`); err == nil {
		t.Error("dangling escape must be an unterminated-literal error")
	}
}

func TestExecLimit(t *testing.T) {
	db := NewDB()
	v := NewTable("V", "vid", "label")
	db.Create(v)
	for i := 0; i < 100; i++ {
		mustInsert(t, v, graph.Int(int64(i)), graph.String("X"))
	}
	st, err := ParseSQL(`SELECT V1.vid FROM V AS V1 WHERE V1.label = 'X';`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.ExecLimit(st, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("limit: %d rows, want 10", len(rows))
	}
}

func TestExecErrors(t *testing.T) {
	db := NewDB()
	db.Create(NewTable("V", "vid", "label"))
	for _, q := range []string{
		`SELECT X.vid FROM Nope AS X;`,
		`SELECT X.vid FROM V AS X, V AS X;`,         // duplicate alias
		`SELECT Y.vid FROM V AS X;`,                 // unknown alias in cols
		`SELECT X.bogus FROM V AS X;`,               // unknown column
		`SELECT X.vid FROM V AS X WHERE Y.vid = 1;`, // unknown alias in where
		`SELECT X.vid FROM V AS X WHERE 1 = 1;`,     // no column reference
	} {
		if _, err := db.ExecSQL(q); err == nil {
			t.Errorf("ExecSQL(%q): want error", q)
		}
	}
}

// TestPlannerUsesIndexSeed: with a selective constant predicate the planner
// must not start from the big unfiltered table.
func TestPlannerSelectivity(t *testing.T) {
	g := graph.New("G")
	// 1000 nodes labelled X, one labelled RARE, connected in a chain.
	var prev graph.NodeID
	for i := 0; i < 1000; i++ {
		id := g.AddNode("", graph.TupleOf("", "label", "X"))
		if i > 0 {
			g.AddEdge("", prev, id, nil)
		}
		prev = id
	}
	rare := g.AddNode("", graph.TupleOf("", "label", "RARE"))
	g.AddEdge("", prev, rare, nil)
	db := NewDB()
	if err := db.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	p := pattern.New("P")
	a := p.LabelNode("a", "RARE")
	b := p.LabelNode("b", "X")
	p.AddEdge("", a, b, nil, nil)
	rows, err := db.MatchPattern(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("rows = %d, want 1", len(rows))
	}
}

// TestExecEqCrossKind: the executor's = compares values, not
// representations, so an Int column value equals a Float literal and a
// Float column value equals an Int literal.
func TestExecEqCrossKind(t *testing.T) {
	db := NewDB()
	v := NewTable("T", "x")
	db.Create(v)
	mustInsert(t, v, graph.Int(1))
	mustInsert(t, v, graph.Float(2))
	for q, want := range map[string]graph.Value{
		`SELECT A.x FROM T AS A WHERE A.x = 1.0;`: graph.Int(1),
		`SELECT A.x FROM T AS A WHERE A.x = 2;`:   graph.Float(2),
	} {
		rows, err := db.ExecSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].String() != want.String() || rows[0][0].Kind() != want.Kind() {
			t.Errorf("%s = %v, want [[%v]]", q, rows, want)
		}
	}
}
