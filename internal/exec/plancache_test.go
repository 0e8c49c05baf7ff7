package exec

import (
	"context"
	"testing"

	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/parser"
	"gqldb/internal/store"
)

// TestPlanCacheGridDeterminism runs the stress query with a shared plan
// cache across every shard × worker combination, twice each (cold plan,
// then cached plan), and requires byte-identical output to the uncached
// serial baseline every time.
func TestPlanCacheGridDeterminism(t *testing.T) {
	coll := stressStore(60)["db"]
	prog, err := parser.Parse(stressQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newEngine(docs{"db": coll}).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Out) == 0 {
		t.Fatal("degenerate test: no matches")
	}

	for _, shards := range []int{1, 4, 17} {
		for _, workers := range []int{1, 16} {
			ds := store.New(store.Options{Shards: shards})
			ds.RegisterDoc("db", coll)
			e := NewOver(ds)
			e.Workers = workers
			// One plan per (pattern, graph): capacity must cover the
			// collection for the second run to hit on every member.
			e.Plans = match.NewPlanCache(2 * len(coll))
			for run := 0; run < 2; run++ {
				got, err := e.RunContext(context.Background(), prog)
				if err != nil {
					t.Fatalf("shards=%d workers=%d run=%d: %v", shards, workers, run, err)
				}
				if len(got.Out) != len(want.Out) {
					t.Fatalf("shards=%d workers=%d run=%d: %d results, want %d",
						shards, workers, run, len(got.Out), len(want.Out))
				}
				for i := range want.Out {
					if got.Out[i].Signature() != want.Out[i].Signature() {
						t.Fatalf("shards=%d workers=%d run=%d: output differs at %d",
							shards, workers, run, i)
					}
				}
			}
			st := e.Plans.Stats()
			if st.Hits == 0 {
				t.Errorf("shards=%d workers=%d: second run never hit the plan cache (%+v)",
					shards, workers, st)
			}
		}
	}
}

// TestPlanCacheInvalidation pins the validity fence end-to-end. Plans are
// fenced per entry on the document version: mutating one graph in a
// document invalidates the sibling graphs' cached plans on next probe
// (their statistics are no longer known-valid), and plans cached against
// replaced graphs must never shape results — the post-mutation query
// agrees byte-for-byte with a fresh uncached engine over the new data.
func TestPlanCacheInvalidation(t *testing.T) {
	mkGraph := func(name, label string) *graph.Graph {
		g := graph.New(name)
		a := g.AddNode("a", graph.TupleOf("", "label", "A"))
		b := g.AddNode("b", graph.TupleOf("", "label", label))
		g.AddEdge("e", a, b, nil)
		return g
	}
	prog, err := parser.Parse(stressQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	ds := store.New(store.Options{Shards: 4})
	ds.RegisterDoc("db", graph.NewCollection(mkGraph("G", "B"), mkGraph("H", "B")))
	e := NewOver(ds)
	e.Plans = match.NewPlanCache(16)

	res1, err := e.RunContext(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Out) != 2 {
		t.Fatalf("pre-mutation: %d results, want 2", len(res1.Out))
	}
	// Warm the cache, then mutate H in place: B disappears from it, so its
	// cached plan's feasible mates are stale — a reused plan would still
	// find a match. G is untouched (same graph pointer), but its document
	// moved, so its plan must be invalidated and recomputed on probe.
	if _, err := e.RunContext(ctx, prog); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.ApplyBatch(ctx, []store.Mutation{
		{Op: store.OpDeleteNode, Doc: "db", Graph: "H", Name: "b"},
	}); err != nil {
		t.Fatal(err)
	}
	res2, err := e.RunContext(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Out) != 1 {
		t.Fatalf("post-mutation: %d results, want 1 (stale plan reused?)", len(res2.Out))
	}
	if st := e.Plans.Stats(); st.Invalidations == 0 {
		t.Errorf("no invalidation recorded across the document version bump: %+v", st)
	}
	// A wholesale document replacement re-plans against the new graphs, not
	// the originals.
	ds.RegisterDoc("db", graph.NewCollection(mkGraph("G", "C")))
	res3, err := e.RunContext(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Out) != 0 {
		t.Fatalf("post-replacement: %d results, want 0", len(res3.Out))
	}
	ds.RegisterDoc("db", graph.NewCollection(mkGraph("G", "B"), mkGraph("H", "B")))
	res4, err := e.RunContext(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewOver(ds).RunContext(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res4.Out) != len(fresh.Out) {
		t.Fatalf("cached engine: %d results, fresh engine: %d", len(res4.Out), len(fresh.Out))
	}
	for i := range fresh.Out {
		if res4.Out[i].Signature() != fresh.Out[i].Signature() {
			t.Fatalf("cached engine differs from fresh at %d", i)
		}
	}
}
