package parser

import (
	"strings"
	"testing"

	"gqldb/internal/ast"
)

func parseOneMutation(t *testing.T, src string) *ast.MutationStmt {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if len(prog.Stmts) != 1 {
		t.Fatalf("Parse(%q): %d statements, want 1", src, len(prog.Stmts))
	}
	m, ok := prog.Stmts[0].(*ast.MutationStmt)
	if !ok {
		t.Fatalf("Parse(%q): statement is %T, want *ast.MutationStmt", src, prog.Stmts[0])
	}
	return m
}

func TestParseMutationForms(t *testing.T) {
	cases := []struct {
		src  string
		want ast.MutationStmt // Tuple/Members checked separately
	}{
		{`create graph g1 in doc("db");`,
			ast.MutationStmt{Kind: ast.MutCreateGraph, Graph: "g1", Doc: "db"}},
		{`create graph g2 <person age=30> { node a <author name="Jo">; node b; edge e (a, b) <cites>; } in doc("db");`,
			ast.MutationStmt{Kind: ast.MutCreateGraph, Graph: "g2", Doc: "db"}},
		{`drop graph g1 in doc("db");`,
			ast.MutationStmt{Kind: ast.MutDropGraph, Graph: "g1", Doc: "db"}},
		{`insert node n7 <author name="Kim"> into g1 in doc("db");`,
			ast.MutationStmt{Kind: ast.MutInsertNode, Graph: "g1", Name: "n7", Doc: "db"}},
		{`insert edge e3 (a, b) <cites year=2008> into g1 in doc("db");`,
			ast.MutationStmt{Kind: ast.MutInsertEdge, Graph: "g1", Name: "e3", From: "a", To: "b", Doc: "db"}},
		{`delete node n7 from g1 in doc("db");`,
			ast.MutationStmt{Kind: ast.MutDeleteNode, Graph: "g1", Name: "n7", Doc: "db"}},
		{`delete edge e3 from g1 in doc("db");`,
			ast.MutationStmt{Kind: ast.MutDeleteEdge, Graph: "g1", Name: "e3", Doc: "db"}},
	}
	for _, tc := range cases {
		m := parseOneMutation(t, tc.src)
		if m.Kind != tc.want.Kind || m.Graph != tc.want.Graph || m.Name != tc.want.Name ||
			m.From != tc.want.From || m.To != tc.want.To || m.Doc != tc.want.Doc {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.src, *m, tc.want)
		}
	}
}

func TestParseMutationBodies(t *testing.T) {
	m := parseOneMutation(t, `create graph g <paper venue="sigmod"> { node a <author name="Jo">; edge e (a, a); } in doc("db");`)
	if m.Tuple == nil || m.Tuple.Tag != "paper" || len(m.Tuple.Attrs) != 1 {
		t.Fatalf("graph tuple = %+v", m.Tuple)
	}
	if len(m.Members) != 2 {
		t.Fatalf("members = %d, want 2", len(m.Members))
	}
	n, ok := m.Members[0].(*ast.NodeDecl)
	if !ok || n.Name != "a" || n.Tuple == nil || n.Tuple.Tag != "author" {
		t.Fatalf("member 0 = %#v", m.Members[0])
	}
	e, ok := m.Members[1].(*ast.EdgeDecl)
	if !ok || e.Name != "e" || len(e.From) != 1 || e.From[0] != "a" {
		t.Fatalf("member 1 = %#v", m.Members[1])
	}
}

// The mutation keywords stay ordinary identifiers everywhere else: an
// assignment to a variable named create must not trip the mutation parser.
func TestMutationKeywordsAreContextual(t *testing.T) {
	prog, err := Parse(`create := graph {};`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, ok := prog.Stmts[0].(*ast.AssignStmt); !ok {
		t.Fatalf("statement is %T, want *ast.AssignStmt", prog.Stmts[0])
	}
}

func TestParseMutationErrors(t *testing.T) {
	bad := []string{
		`create graph in doc("db");`,                                 // missing name
		`create g in doc("db");`,                                     // missing 'graph'
		`create graph g { node a where a.x = 1; } in doc("db");`,     // predicate in literal
		`create graph g { unify a, b; } in doc("db");`,               // non-literal member
		`create graph g { edge e (a.b, c); } in doc("db");`,          // dotted endpoint
		`create graph g;`,                                            // missing doc ref
		`drop graph g in doc(db);`,                                   // doc name must be a string
		`insert node into g in doc("db");`,                           // 'into' swallowed as name
		`insert edge e (a b) into g in doc("db");`,                   // missing comma
		`insert node n in doc("db");`,                                // missing 'into g'
		`delete node n from in doc("db");`,                           // missing graph name
		`delete graph g in doc("db");`,                               // delete takes node/edge
		`insert node n <x=1 into g in doc("db");`,                    // unterminated tuple
		`create graph g <p> { node a; } | { node b; } in doc("db");`, // no disjunction in literals
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error, got none", src)
		}
	}
}

// Render∘parse is idempotent: parsing a statement's String() yields a
// statement with the identical String(). This is the FuzzParseMutation
// invariant, pinned here on representative fixtures.
func TestMutationRenderRoundTrip(t *testing.T) {
	srcs := []string{
		`create graph g in doc("db");`,
		`create graph g <paper venue="sigmod", year=2008> { node a <author name="Jo\n">; node b; edge e (a, b) <cites w=(1 + 2)>; } in doc("d b");`,
		`drop graph g in doc("db");`,
		`insert node n <author name="Kim", score=1.5> into g in doc("db");`,
		`insert edge e (a, b) <cites year=-3> into g in doc("db");`,
		`delete node n from g in doc("db");`,
		`delete edge e from g in doc("db");`,
	}
	for _, src := range srcs {
		m := parseOneMutation(t, src)
		r1 := m.String()
		m2 := parseOneMutation(t, r1)
		if r2 := m2.String(); r1 != r2 {
			t.Errorf("round trip diverged:\n src: %s\n  r1: %s\n  r2: %s", src, r1, r2)
		}
	}
}

func TestIsMutationProgram(t *testing.T) {
	muts, err := Parse(`create graph g in doc("db"); insert node n into g in doc("db");`)
	if err != nil {
		t.Fatal(err)
	}
	if !ast.IsMutationProgram(muts) {
		t.Error("all-mutation program not detected")
	}
	mixed, err := Parse(`create graph g in doc("db"); for P in doc("db") return graph { node P.a; };`)
	if err != nil {
		t.Fatal(err)
	}
	if ast.IsMutationProgram(mixed) {
		t.Error("mixed program misdetected as mutation program")
	}
	if ast.IsMutationProgram(&ast.Program{}) {
		t.Error("empty program misdetected as mutation program")
	}
	if !strings.Contains(parseOneMutation(t, `drop graph g in doc("db");`).String(), `doc("db")`) {
		t.Error("renderer lost the doc target")
	}
}
