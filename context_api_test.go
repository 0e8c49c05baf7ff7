package gqldb

import (
	"context"
	"errors"
	"testing"
)

// smallStore builds a two-document store used by the ctx-first API tests.
func ctxTestCollection(t *testing.T) Collection {
	t.Helper()
	var c Collection
	for _, src := range []string{
		`graph G1 { node a <label="A">; node b <label="B">; edge (a, b); };`,
		`graph G2 { node a <label="A">; node b <label="B">; node c <label="C">;
		  edge (a, b); edge (b, c); };`,
		`graph G3 { node x <label="X">; };`,
	} {
		g, err := ParseGraph(src)
		if err != nil {
			t.Fatal(err)
		}
		c = append(c, g)
	}
	return c
}

func TestSelectContextMatchesSelect(t *testing.T) {
	c := ctxTestCollection(t)
	p, err := ParsePattern(`graph P { node v1 where label="A"; node v2 where label="B"; edge (v1, v2); };`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SelectGraphs(context.Background(), p, c, SelectOptions{Match: Options{Exhaustive: true}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stats MatchStats
	got, err := SelectGraphs(context.Background(), p, c, SelectOptions{Match: Options{Exhaustive: true}, Workers: 4, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("SelectContext: %d matches, Select: %d", len(got), len(want))
	}
	for i := range got {
		if got[i].G != want[i].G {
			t.Fatalf("match %d bound to different graph", i)
		}
	}
	if len(stats.Ops) != 1 || stats.Ops[0].Op != "selection" {
		t.Fatalf("stats.Ops = %+v, want one selection record", stats.Ops)
	}
}

func TestMatchContextCancelled(t *testing.T) {
	c := ctxTestCollection(t)
	p, err := ParsePattern(`graph P { node v1 where label="A"; };`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := MatchContext(ctx, p, c[0], nil, Options{Exhaustive: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MatchContext err = %v, want context.Canceled", err)
	}
	if _, err := MatchOneContext(ctx, p, c[0], nil, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MatchOneContext err = %v, want context.Canceled", err)
	}
}

func TestProductJoinComposeContext(t *testing.T) {
	c := ctxTestCollection(t)
	ctx := context.Background()
	var stats MatchStats

	prod, err := Product(ctx, c[:2], c[1:], 3, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(prod) != 4 {
		t.Fatalf("product size %d, want 4", len(prod))
	}

	joined, err := Join(ctx, c[:2], c[1:], nil, 2, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) != len(prod) {
		t.Fatalf("nil-predicate join size %d, want %d", len(joined), len(prod))
	}

	p, err := ParsePattern(`graph P { node v1 where label="A"; };`)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := SelectGraphs(ctx, p, c, SelectOptions{Match: Options{Exhaustive: true}})
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &Template{Name: "out", Members: []TMember{TNode{Ref: []string{"P", "v1"}}}}
	comp, err := ComposeMatches(ctx, tmpl, "P", ms, 2, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) != len(ms) {
		t.Fatalf("compose size %d, want %d", len(comp), len(ms))
	}

	sj, err := StructuralJoin(ctx, &Template{Name: "pair", Members: []TMember{
		TNode{Ref: []string{"L", "v1"}}, TNode{Ref: []string{"R", "v1"}},
	}}, "L", "R", ms, ms, 2, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(sj) != len(ms)*len(ms) {
		t.Fatalf("structural join size %d, want %d", len(sj), len(ms)*len(ms))
	}
	if len(stats.Ops) == 0 {
		t.Fatal("no operator stats recorded")
	}

	// Cancelled contexts abort every operator.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Product(cctx, c, c, 2, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled product err = %v", err)
	}
	if _, err := ComposeMatches(cctx, tmpl, "P", ms, 2, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compose err = %v", err)
	}
}

func TestRunContext(t *testing.T) {
	c := ctxTestCollection(t)
	store := Store{"db": c}
	src := `
graph P { node v1 where label="A"; node v2 where label="B"; edge (v1, v2); };
for P exhaustive in doc("db")
return graph { node P.v1; node P.v2; edge (P.v1, P.v2); };
`
	want, err := Query(context.Background(), src, QueryOptions{Docs: store})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4, -1} {
		got, err := Query(context.Background(), src, QueryOptions{Docs: store, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Out) != len(want.Out) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got.Out), len(want.Out))
		}
		for i := range got.Out {
			if got.Out[i].Signature() != want.Out[i].Signature() {
				t.Fatalf("workers=%d: result %d differs from serial run", workers, i)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Query(ctx, src, QueryOptions{Docs: store, Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunContext err = %v, want context.Canceled", err)
	}
}

func TestGraphBuilderFacade(t *testing.T) {
	b := NewGraphBuilder("G", false)
	a := b.AddNode("a", nil)
	b.AddNode("a", nil) // duplicate: accumulated, not fatal mid-build
	b.AddEdge("", a, 99, nil)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded despite duplicate node and bad edge")
	}

	ok := NewGraphBuilder("H", true)
	x := ok.AddNode("x", nil)
	y := ok.AddNode("y", nil)
	ok.AddEdge("", x, y, nil)
	g, err := ok.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("built graph has %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
}
