package store_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"gqldb/internal/algebra"
	"gqldb/internal/exec"
	"gqldb/internal/gindex"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/store"
)

// BenchmarkShardedSelection compares the coordinator on a sharded document
// against the serial unsharded scan it must stay byte-identical to: the
// in-process pass (no selector) and the fan-out/frontier merge through an
// explicit LocalSelector, the shape a remote selector runs. End to end,
// bench/'s store.shard_overhead_ratio tracks the in-process pass.
func BenchmarkShardedSelection(b *testing.B) {
	coll := randomCollection(400, 9)
	p := abPattern(b)
	if err := p.Compile(); err != nil {
		b.Fatal(err)
	}
	opt := match.Options{Exhaustive: true}
	ctx := context.Background()

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algebra.SelectionContext(ctx, p, coll, opt, nil, 1, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, shards := range []int{4, 8} {
		s := store.New(store.Options{Shards: shards})
		s.RegisterDoc("db", coll)
		d, ok := s.Snapshot().Doc("db")
		if !ok {
			b.Fatal("doc not registered")
		}
		workers := runtime.GOMAXPROCS(0)
		for _, sel := range []store.ShardSelector{nil, store.LocalSelector{}} {
			path := "pass"
			if sel != nil {
				path = "fanout"
			}
			b.Run(fmt.Sprintf("shards=%d/workers=%d/%s", shards, workers, path), func(b *testing.B) {
				co := &store.Coordinator{Selector: sel}
				for i := 0; i < b.N; i++ {
					st := &match.Stats{}
					if _, err := co.Select(ctx, d, p, opt, nil, workers, st); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCacheHit measures the full RunQuery path when the result cache
// answers: parse + canonical key + deep clone of the cached result, with no
// evaluation. The miss variant is the same query with the cache disabled,
// so the pair bounds what a hit saves.
func BenchmarkCacheHit(b *testing.B) {
	coll := randomCollection(120, 15)
	run := func(b *testing.B, cached bool) {
		s := store.New(store.Options{Shards: 4})
		s.RegisterDoc("db", coll)
		e := exec.NewOver(s)
		e.Workers = runtime.GOMAXPROCS(0)
		if cached {
			e.Cache = store.NewCache(8)
		}
		ctx := context.Background()
		if _, err := e.RunQuery(ctx, storeQuery); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.RunQuery(ctx, storeQuery); err != nil {
				b.Fatal(err)
			}
		}
		if cached {
			b.StopTimer()
			if st := e.Cache.Stats(); st.Hits < int64(b.N) {
				b.Fatalf("expected >=%d cache hits, got %+v", b.N, st)
			}
		}
	}
	b.Run("hit", func(b *testing.B) { run(b, true) })
	b.Run("miss", func(b *testing.B) { run(b, false) })
}

// BenchmarkApplyMutations measures the write path: one insert+delete
// batch (net zero, so the store stays the same size across iterations)
// applied incrementally, against re-registering the whole document — the
// rebuild the incremental path exists to avoid. The incremental variant
// should win by a wide margin on any non-trivial document.
func BenchmarkApplyMutations(b *testing.B) {
	const graphs = 400
	coll := randomCollection(graphs, 9)
	ctx := context.Background()
	for _, shards := range []int{1, 4} {
		opts := store.Options{Shards: shards, IndexMaxLen: 2}
		b.Run(fmt.Sprintf("incremental/shards=%d", shards), func(b *testing.B) {
			s := store.New(opts)
			s.RegisterDoc("db", coll)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := []store.Mutation{
					{Op: store.OpInsertNode, Doc: "db", Graph: fmt.Sprintf("g%d", i%graphs),
						Name: "bench", Attrs: graph.TupleOf("", "label", "A")},
					{Op: store.OpDeleteNode, Doc: "db", Graph: fmt.Sprintf("g%d", i%graphs),
						Name: "bench"},
				}
				if _, err := s.ApplyBatch(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fullreload/shards=%d", shards), func(b *testing.B) {
			s := store.New(opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RegisterDoc("db", coll)
			}
		})
	}
}

// BenchmarkIncrementalIndex compares maintaining the path-feature index
// through a one-graph delta (gindex.Update) against rebuilding it from
// scratch — the equivalence the randomized store tests prove, priced.
func BenchmarkIncrementalIndex(b *testing.B) {
	const graphs = 400
	coll := randomCollection(graphs, 11)
	ix := gindex.Build(coll, 2)
	// The delta: one replaced graph (a fresh pointer with one extra node).
	changed := coll[graphs/2].Clone()
	changed.AddNode("bench", graph.TupleOf("", "label", "A"))
	next := make(graph.Collection, graphs)
	copy(next, coll)
	next[graphs/2] = changed

	b.Run("update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := ix.Update(next, []int32{graphs / 2}); got == nil {
				b.Fatal("update returned nil")
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := gindex.Build(next, 2); got == nil {
				b.Fatal("rebuild returned nil")
			}
		}
	})
}
