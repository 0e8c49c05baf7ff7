package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gqldb/internal/algebra"
	"gqldb/internal/expr"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/pattern"
	"gqldb/internal/sqlbase"
)

// Theorem 4.5 embeds relational algebra in GraphQL: a relation is a
// collection of single-node graphs whose node carries the tuple. The tests
// below hold selection, Cartesian product and valued join over such
// collections to the SQL engine's answers over the same rows.

// sqlOp spells each comparison in the SQL subset.
var sqlOp = map[expr.Op]string{
	expr.OpEq: "=", expr.OpNe: "<>", expr.OpLt: "<",
	expr.OpLe: "<=", expr.OpGt: ">", expr.OpGe: ">=",
}

// relation draws up to 20 rows over two integer columns in [0, 5) and
// stores them in db as the named table and, as Theorem 4.5 reads them, as a
// collection with one single-node graph per row; the node is named alias.
func relation(rng *rand.Rand, db *sqlbase.DB, table, alias string, cols [2]string) (graph.Collection, error) {
	t := sqlbase.NewTable(table, cols[0], cols[1])
	var coll graph.Collection
	for i, n := 0, 1+rng.Intn(20); i < n; i++ {
		a, b := graph.Int(int64(rng.Intn(5))), graph.Int(int64(rng.Intn(5)))
		if err := t.Insert(a, b); err != nil {
			return nil, err
		}
		g := graph.New(fmt.Sprintf("%s%d", table, i))
		g.AddNode(alias, graph.TupleOf("", cols[0], a, cols[1], b))
		coll = append(coll, g)
	}
	db.Create(t)
	return coll, nil
}

// tuples reads the rows of a collection of graphs back as a set: the named
// nodes' attributes, in order.
func tuples(t *testing.T, coll graph.Collection, attrs ...[2]string) answers {
	t.Helper()
	out := answers{}
	for _, g := range coll {
		row := make([]string, len(attrs))
		for i, a := range attrs {
			id, ok := g.NodeByName(a[0])
			if !ok {
				t.Fatalf("graph %s has no node %s", g.Name, a[0])
			}
			row[i] = g.Node(id).Attrs.GetOr(a[1]).String()
		}
		out[strings.Join(row, ",")] = true
	}
	return out
}

// sqlTuples runs a query and returns its rows as a set.
func sqlTuples(t *testing.T, db *sqlbase.DB, q string) answers {
	t.Helper()
	rows, err := db.ExecSQL(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	out := answers{}
	for _, r := range rows {
		row := make([]string, len(r))
		for i, v := range r {
			row[i] = v.String()
		}
		out[strings.Join(row, ",")] = true
	}
	return out
}

// TestTheorem45Selection checks one hand-built relation: the employees
// earning more than 75 are the same two rows under σ as under SQL.
func TestTheorem45Selection(t *testing.T) {
	db := sqlbase.NewDB()
	emp := sqlbase.NewTable("EMP", "name", "dept", "salary")
	var coll graph.Collection
	for i, row := range []struct {
		name, dept string
		salary     int64
	}{{"ann", "eng", 90}, {"bob", "eng", 70}, {"cat", "ops", 80}, {"dan", "ops", 75}} {
		name, dept, salary := graph.String(row.name), graph.String(row.dept), graph.Int(row.salary)
		if err := emp.Insert(name, dept, salary); err != nil {
			t.Fatal(err)
		}
		g := graph.New(fmt.Sprintf("EMP%d", i))
		g.AddNode("e", graph.TupleOf("", "name", name, "dept", dept, "salary", salary))
		coll = append(coll, g)
	}
	db.Create(emp)

	p := pattern.New("P")
	p.AddNode("t", nil, expr.Binary{Op: expr.OpGt, L: expr.Name{Parts: []string{"salary"}}, R: expr.Lit{Val: graph.Int(75)}})
	sel, err := algebra.SelectionContext(context.Background(), p, coll, match.Options{}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var kept graph.Collection
	for _, m := range sel {
		kept = append(kept, m.G)
	}
	got := tuples(t, kept, [2]string{"e", "name"}, [2]string{"e", "salary"})
	want := sqlTuples(t, db, "SELECT e.name, e.salary FROM EMP AS e WHERE e.salary > 75;")
	if d := diff(want, got); d != "" {
		t.Errorf("selection against SQL: %s", d)
	}
	if len(got) != 2 {
		t.Errorf("selection kept %d employees, want ann and cat", len(got))
	}
}

// randomRelations draws the relations R(a, b) and S(c, d) of one round.
func randomRelations(t *testing.T, round int) (*sqlbase.DB, graph.Collection, graph.Collection) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(4500 + round)))
	db := sqlbase.NewDB()
	r, err := relation(rng, db, "R", "r", [2]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := relation(rng, db, "S", "s", [2]string{"c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	return db, r, s
}

// rounds is how many pairs of random relations each test below draws.
func rounds() int {
	if testing.Short() {
		return 2
	}
	return 10
}

var (
	rCols    = [][2]string{{"r", "a"}, {"r", "b"}}
	prodCols = [][2]string{{"r", "a"}, {"r", "b"}, {"s", "c"}, {"s", "d"}}
)

const fromRS = "SELECT r.a, r.b, s.c, s.d FROM R AS r, S AS s"

// TestTheorem45SelectionRandom runs every comparison operator through
// selection (σ with a one-node pattern) on ten random relations R(a, b).
func TestTheorem45SelectionRandom(t *testing.T) {
	ctx := context.Background()
	for round := 0; round < rounds(); round++ {
		db, r, _ := randomRelations(t, round)
		for i, op := range cmpOps {
			k := int64((round + i) % 5)
			p := pattern.New("P")
			p.AddNode("t", nil, expr.Binary{Op: op, L: expr.Name{Parts: []string{"a"}}, R: expr.Lit{Val: graph.Int(k)}})
			sel, err := algebra.SelectionContext(ctx, p, r, match.Options{}, nil, 1+round%4, nil)
			if err != nil {
				t.Fatal(err)
			}
			var kept graph.Collection
			for _, m := range sel {
				kept = append(kept, m.G)
			}
			q := fmt.Sprintf("SELECT r.a, r.b FROM R AS r WHERE r.a %s %d;", sqlOp[op], k)
			if d := diff(sqlTuples(t, db, q), tuples(t, kept, rCols...)); d != "" {
				t.Errorf("round %d: selection against %s: %s", round, q, d)
			}
		}
	}
}

// TestTheorem45ProductJoin checks the Cartesian product, and valued join
// under every comparison operator, on ten pairs of random relations R(a, b)
// and S(c, d).
func TestTheorem45ProductJoin(t *testing.T) {
	ctx := context.Background()
	for round := 0; round < rounds(); round++ {
		db, r, s := randomRelations(t, round)
		prod, err := algebra.CartesianProductContext(ctx, r, s, 1+round%4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := diff(sqlTuples(t, db, fromRS+";"), tuples(t, prod, prodCols...)); d != "" {
			t.Errorf("round %d: product against SQL: %s", round, d)
		}
		for _, op := range cmpOps {
			pred := expr.Binary{Op: op, L: expr.Name{Parts: []string{"r", "a"}}, R: expr.Name{Parts: []string{"s", "c"}}}
			join, err := algebra.ValuedJoinContext(ctx, r, s, pred, 1+round%4, nil)
			if err != nil {
				t.Fatal(err)
			}
			q := fmt.Sprintf("%s WHERE r.a %s s.c;", fromRS, sqlOp[op])
			if d := diff(sqlTuples(t, db, q), tuples(t, join, prodCols...)); d != "" {
				t.Errorf("round %d: valued join against %s: %s", round, q, d)
			}
		}
	}
}
