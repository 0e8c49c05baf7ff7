package store_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gqldb/internal/algebra"
	"gqldb/internal/gen"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/pattern"
	"gqldb/internal/store"
)

// mixedCollection mixes members below the member-index size with members
// at it and above it; every graph gets a unique name so mutations can
// address it.
func mixedCollection(seed int64) graph.Collection {
	rng := rand.New(rand.NewSource(seed))
	var coll graph.Collection
	for i := 0; i < 12; i++ {
		var g *graph.Graph
		switch i % 4 {
		case 1:
			g = gen.PrefAttach(store.IndexMinNodes+rng.Intn(200), 4*store.IndexMinNodes, 12, rng.Int63())
		case 3:
			g = gen.ER(store.IndexMinNodes-1-rng.Intn(2), 3*store.IndexMinNodes, 12, rng.Int63())
		default:
			g = gen.ER(10+rng.Intn(30), 20+rng.Intn(60), 6, rng.Int63())
		}
		g.Name = fmt.Sprintf("g%d", i)
		coll = append(coll, g)
	}
	return coll
}

// memberPatterns draws clique queries sampled from the large members (so
// they have answers), clique queries over frequent labels, and connected
// subgraphs extracted from small members.
func memberPatterns(rng *rand.Rand, coll graph.Collection) []*pattern.Pattern {
	var ps []*pattern.Pattern
	for len(ps) < 24 {
		g := coll[rng.Intn(len(coll))]
		var p *pattern.Pattern
		switch rng.Intn(3) {
		case 0:
			p = gen.GraphCliqueQuery(g, 2+rng.Intn(3), rng)
		case 1:
			p = gen.CliqueQuery(2+rng.Intn(2), gen.TopLabels(g, 4), rng)
		default:
			p = gen.SubgraphQuery(g, 2+rng.Intn(3), rng)
		}
		if p != nil {
			ps = append(ps, p)
		}
	}
	return ps
}

// referenceSelect is the unindexed baseline: every member matched with
// match.Baseline and no index, in canonical order.
func referenceSelect(t *testing.T, p *pattern.Pattern, coll graph.Collection, opt match.Options) algebra.Matched {
	t.Helper()
	base := match.Baseline()
	base.Exhaustive, base.Limit = opt.Exhaustive, opt.Limit
	want, err := algebra.SelectionContext(context.Background(), p, coll, base, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// sameMatched reports the first difference between two selections, or "".
func sameMatched(got, want algebra.Matched) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.G != w.G || !slices.Equal(g.M.Nodes, w.M.Nodes) || !slices.Equal(g.M.Edges, w.M.Edges) {
			return fmt.Sprintf("row %d = %s %v/%v, want %s %v/%v", i, g.G.Name, g.M.Nodes, g.M.Edges, w.G.Name, w.M.Nodes, w.M.Edges)
		}
	}
	return ""
}

// memberIndex finds g's canonical ordinal and returns its member index.
func memberIndex(t *testing.T, d *store.Doc, g *graph.Graph) *match.Index {
	t.Helper()
	for ord, m := range d.Collection() {
		if m == g {
			return d.MemberIndex(ord)
		}
	}
	t.Fatalf("member %s not in any shard", g.Name)
	return nil
}

// TestMemberIndexAnswersMatchReference: over a collection mixing members
// below and above the member-index size, the store indexes exactly the
// large members, and every selection — exhaustive, first-match and
// limited — returns the unindexed baseline's rows byte for byte, for
// shards {1, 4} × workers {1, 16}.
func TestMemberIndexAnswersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	coll := mixedCollection(41)
	ps := memberPatterns(rng, coll)
	opts := []match.Options{{Exhaustive: true}, {}, {Exhaustive: true, Limit: 3}}
	for _, shards := range []int{1, 4} {
		ds := store.New(store.Options{Shards: shards})
		if _, err := ds.RegisterDoc("D", coll); err != nil {
			t.Fatal(err)
		}
		d, _ := ds.Snapshot().Doc("D")
		for _, g := range coll {
			ix := memberIndex(t, d, g)
			if large := g.NumNodes() >= store.IndexMinNodes; (ix != nil) != large || (ix != nil && ix.G != g) {
				t.Fatalf("shards=%d member %s (%d nodes): index %v", shards, g.Name, g.NumNodes(), ix != nil)
			}
		}
		for pi, p := range ps {
			for _, opt := range opts {
				want := referenceSelect(t, p, coll, opt)
				for _, workers := range []int{1, 16} {
					got, err := (&store.Coordinator{}).Select(context.Background(), d, p, opt, nil, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					if diff := sameMatched(got, want); diff != "" {
						t.Fatalf("shards=%d workers=%d pattern %d opt %+v: %s\n%s", shards, workers, pi, opt, diff, p)
					}
				}
			}
		}
	}
}

// TestMemberIndexMaintenance: mutations of an indexed member rebuild its
// index from the new graph (a stale one would miss the inserted label and
// still see the deleted node), a member that shrinks below the size drops
// its index and regains it when it grows back, and after every batch the
// answers equal the reference over the new collection.
func TestMemberIndexMaintenance(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ds := store.New(store.Options{Shards: shards})
		coll := mixedCollection(43)
		if _, err := ds.RegisterDoc("D", coll); err != nil {
			t.Fatal(err)
		}
		large, edge := coll[1], coll[5]
		// Pad the second large member down to exactly the size constant, so
		// one deletion takes it below.
		var muts []store.Mutation
		for n := edge.NumNodes() - 1; n >= store.IndexMinNodes; n-- {
			muts = append(muts, store.Mutation{Op: store.OpDeleteNode, Doc: "D", Graph: edge.Name, Name: edge.Node(graph.NodeID(n)).Name})
		}
		muts = append(muts,
			store.Mutation{Op: store.OpInsertNode, Doc: "D", Graph: large.Name, Name: "fresh", Attrs: graph.TupleOf("", "label", "FRESH")},
			store.Mutation{Op: store.OpInsertEdge, Doc: "D", Graph: large.Name, Name: "fe", From: "fresh", To: large.Node(0).Name},
		)
		// fresh joins node 0, whose label the pattern asks for next to it.
		freshEdge := pattern.New("P")
		a := freshEdge.LabelNode("a", "FRESH")
		b := freshEdge.LabelNode("b", large.Label(0))
		freshEdge.AddEdge("", a, b, nil, nil)
		// node 0's own edges: the deletion below must remove them.
		zeroEdge := pattern.New("P")
		z := zeroEdge.LabelNode("z", large.Label(0))
		w := zeroEdge.AddNode("w", nil, nil)
		zeroEdge.AddEdge("", z, w, nil, nil)

		check := func(step string, wantIndexed map[string]bool, wantRows map[*pattern.Pattern]bool) {
			t.Helper()
			d, _ := ds.Snapshot().Doc("D")
			cur := d.Collection()
			for _, g := range cur {
				ix := memberIndex(t, d, g)
				if want, ok := wantIndexed[g.Name]; ok && (ix != nil) != want {
					t.Fatalf("shards=%d %s: member %s (%d nodes) indexed=%v, want %v", shards, step, g.Name, g.NumNodes(), ix != nil, want)
				}
				if ix != nil && ix.G != g {
					t.Fatalf("shards=%d %s: member %s keeps a stale index", shards, step, g.Name)
				}
			}
			for _, p := range []*pattern.Pattern{freshEdge, zeroEdge} {
				want := referenceSelect(t, p, cur, match.Options{Exhaustive: true})
				got, err := (&store.Coordinator{}).Select(context.Background(), d, p, match.Options{Exhaustive: true}, nil, 4, nil)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameMatched(got, want); diff != "" {
					t.Fatalf("shards=%d %s: %s\n%s", shards, step, diff, p)
				}
				if wantAny, ok := wantRows[p]; ok && (len(want) > 0) != wantAny {
					t.Fatalf("shards=%d %s: reference has %d rows for %s", shards, step, len(want), p)
				}
			}
		}

		check("registered", map[string]bool{large.Name: true, edge.Name: true}, map[*pattern.Pattern]bool{freshEdge: false})
		if _, err := ds.ApplyBatch(context.Background(), muts); err != nil {
			t.Fatal(err)
		}
		check("inserted", map[string]bool{large.Name: true, edge.Name: true}, map[*pattern.Pattern]bool{freshEdge: true})

		muts = []store.Mutation{
			{Op: store.OpDeleteNode, Doc: "D", Graph: large.Name, Name: large.Node(0).Name},
			{Op: store.OpDeleteNode, Doc: "D", Graph: edge.Name, Name: edge.Node(0).Name},
		}
		if _, err := ds.ApplyBatch(context.Background(), muts); err != nil {
			t.Fatal(err)
		}
		check("deleted", map[string]bool{large.Name: true, edge.Name: false}, map[*pattern.Pattern]bool{freshEdge: false})

		muts = []store.Mutation{{Op: store.OpInsertNode, Doc: "D", Graph: edge.Name, Name: "back", Attrs: graph.TupleOf("", "label", "L000")}}
		if _, err := ds.ApplyBatch(context.Background(), muts); err != nil {
			t.Fatal(err)
		}
		check("regrown", map[string]bool{large.Name: true, edge.Name: true}, nil)
	}
}
