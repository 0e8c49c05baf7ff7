package gqldb

// Integration tests through the facade: the indexed and parallel
// collection pipelines and a miniature of the §5 workload. The cross-engine
// agreement of the native matcher, the SQL comparator and the Datalog
// translation is checked in internal/difftest.

import (
	"context"
	"math/rand"
	"testing"

	"gqldb/internal/gen"
	"gqldb/internal/gindex"
	"gqldb/internal/pattern"
)

// TestCollectionPipelineAgrees: over a collection of small graphs, the
// indexed filter-then-verify path, plain selection and parallel selection
// agree on which graphs match.
func TestCollectionPipelineAgrees(t *testing.T) {
	coll := gen.DBLP(120, 40, []string{"SIGMOD", "VLDB"}, 5)
	// Give papers a co-author structure so edge patterns are meaningful:
	// connect all authors within a paper.
	for _, g := range coll {
		n := g.NumNodes()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g.AddEdge("", NodeID(i), NodeID(j), nil)
			}
		}
		for _, nd := range g.Nodes() {
			// Label nodes by author-pool bucket so label patterns apply.
			name := nd.Attrs.GetOr("name").AsString()
			g.Node(nd.ID).Attrs.Set("label", String("a"+name[len(name)-1:]))
		}
	}
	p := NewPattern("Q")
	a := p.LabelNode("x", "a1")
	b := p.LabelNode("y", "a2")
	p.AddEdge("", a, b, nil, nil)

	plain, err := SelectGraphs(context.Background(), p, coll, SelectOptions{Match: Options{Exhaustive: true}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SelectGraphs(context.Background(), p, coll, SelectOptions{Match: Options{Exhaustive: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(par) {
		t.Fatalf("parallel selection disagrees: %d vs %d", len(par), len(plain))
	}
	cix := gindex.Build(coll, 2)
	hits, verified, err := cix.Select(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct graphs with >= 1 match must equal the filter+verify hits.
	distinct := map[*Graph]bool{}
	for _, m := range plain {
		distinct[m.G] = true
	}
	if len(hits) != len(distinct) {
		t.Fatalf("indexed selection found %d graphs, plain %d", len(hits), len(distinct))
	}
	if verified > len(coll) {
		t.Fatal("index verified more than the collection")
	}
	t.Logf("collection=%d candidates verified=%d hits=%d", len(coll), verified, len(hits))
}

// TestEndToEndWorkload is a miniature of the full §5 pipeline: build the
// PPI stand-in, index it, run a mixed clique workload with the optimized
// options and validate the §4 invariants on every query.
func TestEndToEndWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("workload test skipped in -short mode")
	}
	g := gen.YeastPPI(4)
	ix := BuildIndex(g, 1, true)
	rng := rand.New(rand.NewSource(4))
	pool := ix.Labels.TopLabels(40)
	checked := 0
	for size := 2; size <= 5; size++ {
		for q := 0; q < 6; q++ {
			var p *pattern.Pattern
			if q%2 == 0 {
				p = gen.CliqueQuery(size, pool, rng)
			} else {
				p = gen.GraphCliqueQuery(g, size, rng)
			}
			if p == nil {
				continue
			}
			opt := Optimized()
			opt.Limit = 1000
			opt.CollectStats = true
			msOpt, st, err := Match(p, g, ix, opt)
			if err != nil {
				t.Fatal(err)
			}
			base := Baseline()
			base.Limit = 1000
			msBase, _, err := Match(p, g, ix, base)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Truncated && len(msOpt) != len(msBase) {
				t.Fatalf("optimized and baseline disagree: %d vs %d", len(msOpt), len(msBase))
			}
			for u := range st.CandRefined {
				if st.CandRefined[u] > st.CandLocal[u] || st.CandLocal[u] > st.CandBaseline[u] {
					t.Fatal("candidate-set monotonicity violated")
				}
			}
			checked++
		}
	}
	if checked < 15 {
		t.Fatalf("only %d queries checked", checked)
	}
}
