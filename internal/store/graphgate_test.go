package store_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gqldb/internal/algebra"
	"gqldb/internal/expr"
	"gqldb/internal/gen"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/parser"
	"gqldb/internal/pattern"
	"gqldb/internal/store"
)

var gateVenues = []string{"SIGMOD", "VLDB", "ICDE", "KDD"}

// gateCollection is a DBLP-like collection: paper graphs with booktitle and
// year graph attributes (year missing on about one in five, so conditions
// over it see Null) and author nodes joined by a random subset of the
// author pairs.
func gateCollection(seed int64) graph.Collection {
	rng := rand.New(rand.NewSource(seed))
	coll := gen.DBLP(120, 24, gateVenues, seed)
	for _, g := range coll {
		if rng.Intn(5) == 0 {
			g.Attrs = graph.TupleOf("inproceedings", "booktitle", g.Attrs.GetOr("booktitle").AsString())
		}
		n := g.NumNodes()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) != 0 {
					g.AddEdge("", graph.NodeID(i), graph.NodeID(j), nil)
				}
			}
		}
	}
	return coll
}

// gateCond is one where-conjunct of a generated pattern; graph marks the
// conditions that read graph attributes alone.
type gateCond struct {
	src   string
	graph bool
}

// gateConds draws a where clause for a motif with the given node names:
// graph conjuncts (bare and P-qualified, over present, missing and
// type-mismatched attributes, and one that errors), node conjuncts, and
// multi-node conjuncts, mixed at random.
func gateConds(rng *rand.Rand, nodes []string) []gateCond {
	venue := func() string { return fmt.Sprintf("%q", gateVenues[rng.Intn(len(gateVenues))]) }
	author := func() string { return fmt.Sprintf("%q", fmt.Sprintf("author%04d", rng.Intn(12))) }
	graphConds := []func() string{
		func() string { return "booktitle = " + venue() },
		func() string { return "P.booktitle != " + venue() },
		func() string { return fmt.Sprintf("P.year >= %d", 1995+rng.Intn(14)) },
		func() string { return fmt.Sprintf("year < %d", 1995+rng.Intn(14)) },
		func() string { return "P.pages > 10" },    // missing: Null compares false
		func() string { return "P.pages != 3" },    // missing: incomparable != holds
		func() string { return `P.year = "x"` },    // type mismatch: false
		func() string { return "P.booktitle > 3" }, // type mismatch: false
		func() string { return "P.year / 0 > 1" },  // evaluation error
		func() string { return `P.year > 2000 | booktitle = "KDD"` },
	}
	var out []gateCond
	for k := rng.Intn(3); k > 0; k-- {
		out = append(out, gateCond{src: graphConds[rng.Intn(len(graphConds))](), graph: true})
	}
	if len(nodes) > 0 && rng.Intn(2) == 0 {
		v := nodes[rng.Intn(len(nodes))]
		if rng.Intn(2) == 0 {
			out = append(out, gateCond{src: v + ".name = " + author()})
		} else {
			out = append(out, gateCond{src: "P." + v + ".name != " + author()})
		}
	}
	if len(nodes) > 1 && rng.Intn(2) == 0 {
		switch rng.Intn(3) {
		case 0:
			out = append(out, gateCond{src: nodes[0] + ".name < " + nodes[1] + ".name"})
		case 1:
			out = append(out, gateCond{src: nodes[0] + ".name != " + nodes[len(nodes)-1] + ".name"})
		default:
			// A node name inside a disjunction keeps the conjunct out of
			// the gate even though it also reads a graph attribute.
			out = append(out, gateCond{src: "P.year > 2003 | " + nodes[0] + ".name = " + author()})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// gateMotif builds one of the motif kinds — empty, one node, an undirected
// edge, a directed edge, a path — with conds as its where conjuncts.
func gateMotif(t *testing.T, kind int, conds []gateCond) *pattern.Pattern {
	t.Helper()
	var p *pattern.Pattern
	if kind == 3 {
		p = pattern.NewDirected("P")
	} else {
		p = pattern.New("P")
	}
	author := graph.TupleOf("author")
	switch kind {
	case 1:
		p.AddNode("v1", author, nil)
	case 2, 3:
		v1 := p.AddNode("v1", author, nil)
		v2 := p.AddNode("v2", author, nil)
		p.AddEdge("e", v1, v2, nil, nil)
	case 4:
		v1 := p.AddNode("v1", author, nil)
		v2 := p.AddNode("v2", nil, nil)
		v3 := p.AddNode("v3", author, nil)
		p.AddEdge("e1", v1, v2, nil, nil)
		p.AddEdge("e2", v2, v3, nil, nil)
	}
	for _, c := range conds {
		e, err := parser.ParseExpr(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		p.Where(e)
	}
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	return p
}

var gateMotifNodes = [][]string{nil, {"v1"}, {"v1", "v2"}, {"v1", "v2"}, {"v1", "v2", "v3"}}

// renderRows prints a selection's rows — member, node and edge bindings —
// one per line.
func renderRows(ms algebra.Matched) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s %v %v\n", m.G.Name, m.M.Nodes, m.M.Edges)
	}
	return b.String()
}

// gateReference is σ_P(C) without the graph gate: the bare motif is matched
// with every where conjunct removed — so neither the gate nor Compile's
// classification of the conjuncts takes part — and each binding is then
// filtered by the whole where clause evaluated over the matched graph.
func gateReference(t *testing.T, ref *pattern.Pattern, where expr.Expr, coll graph.Collection, opt match.Options) algebra.Matched {
	t.Helper()
	var out algebra.Matched
	for _, g := range coll {
		ms, _, err := match.Find(ref, g, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			mg := &algebra.MatchedGraph{P: ref, G: g, M: m}
			if ok, err := expr.Holds(where, mg); err == nil && ok {
				out = append(out, mg)
			}
		}
	}
	return out
}

// TestGraphGateMatchesReference: selection with the graph gate returns
// rows byte-identical to the gate-free reference, over random DBLP-like
// collections and patterns mixing graph, node and multi-node conditions,
// for every shard count and worker setting.
func TestGraphGateMatchesReference(t *testing.T) {
	opt := match.Options{Exhaustive: true}
	var gated, rejected, nonEmpty int
	for seed := int64(1); seed <= 3; seed++ {
		coll := gateCollection(seed)
		rng := rand.New(rand.NewSource(seed))
		var docs []*store.Doc
		for _, shards := range []int{1, 4} {
			s := store.New(store.Options{Shards: shards})
			s.RegisterDoc("DBLP", coll)
			d, _ := s.Snapshot().Doc("DBLP")
			docs = append(docs, d)
		}
		for q := 0; q < 30; q++ {
			kind := q % len(gateMotifNodes)
			conds := gateConds(rng, gateMotifNodes[kind])
			p := gateMotif(t, kind, conds)
			ref := gateMotif(t, kind, nil)
			var all []expr.Expr
			for _, c := range conds {
				e, _ := parser.ParseExpr(c.src)
				all = append(all, e)
				if c.graph {
					gated++
				}
			}
			for _, g := range coll {
				if ok, err := p.GraphHolds(g.Attrs); !ok || err != nil {
					rejected++
				}
			}
			want := renderRows(gateReference(t, ref, expr.And(all...), coll, opt))
			if want != "" {
				nonEmpty++
			}
			for i, shards := range []int{1, 4} {
				for _, workers := range []int{1, 16} {
					got, err := (&store.Coordinator{}).Select(context.Background(), docs[i], p, opt, nil, workers, nil)
					if err != nil {
						t.Fatalf("seed %d pattern %s: %v", seed, p, err)
					}
					if g := renderRows(got); g != want {
						t.Fatalf("seed %d shards=%d workers=%d pattern %s:\ngot\n%swant\n%s", seed, shards, workers, p, g, want)
					}
				}
			}
		}
	}
	if gated == 0 || rejected == 0 || nonEmpty < 20 {
		t.Fatalf("degenerate test: %d graph conjuncts, %d gate rejections, %d non-empty answers", gated, rejected, nonEmpty)
	}
}
