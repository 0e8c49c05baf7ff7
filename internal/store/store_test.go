package store_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"gqldb/internal/algebra"
	"gqldb/internal/ast"
	"gqldb/internal/exec"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/parser"
	"gqldb/internal/pattern"
	"gqldb/internal/store"
)

// randomCollection builds n small random labeled graphs (deterministic per
// seed) — enough matches and enough spread that sharding and fan-out have
// real work to reorder if the merge were wrong.
func randomCollection(n int, seed int64) graph.Collection {
	rng := rand.New(rand.NewSource(seed))
	var c graph.Collection
	for i := 0; i < n; i++ {
		g := graph.New(fmt.Sprintf("g%d", i))
		k := 3 + rng.Intn(4)
		for j := 0; j < k; j++ {
			g.AddNode("", graph.TupleOf("", "label", string(rune('A'+rng.Intn(3)))))
		}
		for j := 0; j < 2*k; j++ {
			u, v := rng.Intn(k), rng.Intn(k)
			if u != v {
				g.AddEdge("", graph.NodeID(u), graph.NodeID(v), nil)
			}
		}
		c = append(c, g)
	}
	return c
}

const storeQuery = `
graph P { node v1 where label="A"; node v2 where label="B"; edge (v1, v2); };
for P exhaustive in doc("db")
return graph { node P.v1; node P.v2; edge (P.v1, P.v2); };
`

// abPattern compiles the A—B edge pattern used by the direct coordinator
// tests.
func abPattern(t testing.TB) *pattern.Pattern {
	t.Helper()
	prog, err := parser.Parse(`graph P { node v1 where label="A"; node v2 where label="B"; edge (v1, v2); };`)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := prog.Stmts[0].(*ast.GraphDecl)
	if !ok {
		t.Fatalf("expected a graph declaration, got %T", prog.Stmts[0])
	}
	p, err := d.ToPattern()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// renderResult flattens a query result to one comparable string (variables
// in sorted order — map iteration is not deterministic).
func renderResult(res *exec.Result) string {
	s := ""
	for _, g := range res.Out {
		s += g.String() + "\n"
	}
	names := make([]string, 0, len(res.Vars))
	for name := range res.Vars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s += name + "=" + res.Vars[name].String() + "\n"
	}
	return s
}

// TestShardPartition: every member graph lands in exactly one shard, shard
// ordinals ascend, and the partition is deterministic across builds.
func TestShardPartition(t *testing.T) {
	coll := randomCollection(100, 3)
	for _, shards := range []int{1, 4, 17, 1000} {
		s := store.New(store.Options{Shards: shards})
		s.RegisterDoc("db", coll)
		d, ok := s.Snapshot().Doc("db")
		if !ok {
			t.Fatal("doc missing from snapshot")
		}
		if d.Len() != len(coll) {
			t.Fatalf("shards=%d: doc has %d graphs, want %d", shards, d.Len(), len(coll))
		}
		seen := make([]bool, len(coll))
		for _, sh := range d.Shards() {
			if len(sh.Ords) != len(sh.Coll) {
				t.Fatalf("shards=%d: ords/coll length mismatch", shards)
			}
			prev := int32(-1)
			for li, ord := range sh.Ords {
				if ord <= prev {
					t.Fatalf("shards=%d: shard ordinals not ascending (%d after %d)", shards, ord, prev)
				}
				prev = ord
				if seen[ord] {
					t.Fatalf("shards=%d: graph %d assigned twice", shards, ord)
				}
				seen[ord] = true
				if sh.Coll[li] != coll[ord] {
					t.Fatalf("shards=%d: shard-local graph %d is not collection member %d", shards, li, ord)
				}
			}
		}
		for ord, ok := range seen {
			if !ok {
				t.Fatalf("shards=%d: graph %d assigned to no shard", shards, ord)
			}
		}
		if shards > len(coll) && len(d.Shards()) > len(coll) {
			t.Fatalf("shards=%d: materialized %d shards for %d graphs", shards, len(d.Shards()), len(coll))
		}
		// Deterministic partition: a second build assigns identically.
		s2 := store.New(store.Options{Shards: shards})
		s2.RegisterDoc("db", coll)
		d2, _ := s2.Snapshot().Doc("db")
		for si, sh := range d.Shards() {
			sh2 := d2.Shards()[si]
			if len(sh.Ords) != len(sh2.Ords) {
				t.Fatalf("shards=%d: partition not deterministic", shards)
			}
			for i := range sh.Ords {
				if sh.Ords[i] != sh2.Ords[i] {
					t.Fatalf("shards=%d: partition not deterministic", shards)
				}
			}
		}
	}
}

// referenceSelection is the oracle the byte-identity grids compare against:
// a plain loop over the collection with match.Find. It shares nothing with
// the selection kernel — no pool, no rounds, no index filter, no coordinator.
func referenceSelection(t testing.TB, p *pattern.Pattern, coll graph.Collection, opt match.Options) algebra.Matched {
	t.Helper()
	var out algebra.Matched
	for _, g := range coll {
		maps, _, err := match.Find(p, g, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range maps {
			out = append(out, &algebra.MatchedGraph{P: p, G: g, M: m})
		}
	}
	return out
}

// referenceResult evaluates storeQuery over coll without the engine: the
// reference selection, then the return template once per binding, rendered
// like renderResult (the program defines no variables).
func referenceResult(t testing.TB, coll graph.Collection) string {
	t.Helper()
	tmpl, err := mustParse(t, storeQuery).Stmts[1].(*ast.FLWRStmt).Return.ToTemplate()
	if err != nil {
		t.Fatal(err)
	}
	p := abPattern(t)
	s := ""
	for _, m := range referenceSelection(t, p, coll, match.Options{Exhaustive: true}) {
		g, err := tmpl.Instantiate(map[string]algebra.Operand{p.Name: algebra.MatchedOperand(m)})
		if err != nil {
			t.Fatal(err)
		}
		s += g.String() + "\n"
	}
	return s
}

// TestCoordinatorMatchesSerialSelection: the coordinator over every shard
// count reproduces the reference selection exactly — same graphs in the
// same order with the same bindings — both as one in-process pass (no
// selector) and as a fan-out/merge through an explicit LocalSelector.
func TestCoordinatorMatchesSerialSelection(t *testing.T) {
	coll := randomCollection(80, 5)
	p := abPattern(t)
	opt := match.Options{Exhaustive: true}
	want := referenceSelection(t, p, coll, opt)
	if len(want) == 0 {
		t.Fatal("degenerate test: reference selection found nothing")
	}
	for _, shards := range []int{1, 4, 17} {
		for _, indexLen := range []int{0, 2} {
			s := store.New(store.Options{Shards: shards, IndexMaxLen: indexLen})
			s.RegisterDoc("db", coll)
			d, _ := s.Snapshot().Doc("db")
			for _, sel := range []store.ShardSelector{nil, store.LocalSelector{}} {
				for _, workers := range []int{1, 4, -1} {
					co := &store.Coordinator{Selector: sel}
					stats := &match.Stats{}
					got, err := co.Select(context.Background(), d, p, opt, nil, workers, stats)
					if err != nil {
						t.Fatalf("shards=%d ix=%d sel=%T workers=%d: %v", shards, indexLen, sel, workers, err)
					}
					if len(got) != len(want) {
						t.Fatalf("shards=%d ix=%d sel=%T workers=%d: %d matches, want %d", shards, indexLen, sel, workers, len(got), len(want))
					}
					for i := range want {
						if got[i].G != want[i].G {
							t.Fatalf("shards=%d ix=%d sel=%T workers=%d: match %d bound to wrong graph", shards, indexLen, sel, workers, i)
						}
						if got[i].InducedGraph().String() != want[i].InducedGraph().String() {
							t.Fatalf("shards=%d ix=%d sel=%T workers=%d: match %d binding differs", shards, indexLen, sel, workers, i)
						}
					}
					// Without a selector every shard count is one plain
					// selection; a selector fans out.
					wantOp := "selection"
					if sel != nil {
						wantOp = "sharded-selection"
					}
					if len(stats.Ops) != 1 || stats.Ops[0].Op != wantOp {
						t.Fatalf("shards=%d sel=%T: expected one %s OpStat, got %v", shards, sel, wantOp, stats.Ops)
					}
				}
			}
		}
	}
}

// failAfterSelector answers every shard through LocalSelector, except that
// shard fail waits until shard owner has answered and then fails.
type failAfterSelector struct {
	owner, fail int
	answered    chan struct{}
}

var errShardDown = errors.New("shard down")

func (s failAfterSelector) SelectShard(ctx context.Context, req store.ShardRequest) (store.ShardResult, error) {
	if req.Index == s.fail {
		select {
		case <-s.answered:
			return store.ShardResult{}, errShardDown
		case <-ctx.Done():
			return store.ShardResult{}, ctx.Err()
		}
	}
	res, err := store.LocalSelector{}.SelectShard(ctx, req)
	if req.Index == s.owner {
		close(s.answered)
	}
	return res, err
}

// TestFailingShardEmitsNothing: a selection through a selector emits no row
// when a shard fails, even one that fails after the owner of the first
// matching ordinal has answered.
func TestFailingShardEmitsNothing(t *testing.T) {
	var coll graph.Collection
	for i := 0; i < 8; i++ {
		g := graph.New(fmt.Sprintf("g%d", i))
		g.AddEdge("", g.AddNode("", graph.TupleOf("", "label", "A")), g.AddNode("", graph.TupleOf("", "label", "B")), nil)
		coll = append(coll, g)
	}
	s := store.New(store.Options{Shards: 4})
	s.RegisterDoc("db", coll)
	d, _ := s.Snapshot().Doc("db")
	owner := -1
	for si, sh := range d.Shards() {
		if len(sh.Ords) > 0 && sh.Ords[0] == 0 {
			owner = si
		}
	}
	last := len(d.Shards()) - 1
	if owner < 0 || owner == last {
		t.Fatalf("degenerate fixture: ordinal 0 is owned by shard %d of %d", owner, last+1)
	}
	p := abPattern(t)
	for _, workers := range []int{1, 4} {
		co := &store.Coordinator{Selector: failAfterSelector{owner: owner, fail: last, answered: make(chan struct{})}}
		emitted := 0
		err := co.SelectStream(t.Context(), d, p, match.Options{Exhaustive: true}, workers, nil, func(ms algebra.Matched) error {
			emitted += len(ms)
			return nil
		})
		if !errors.Is(err, errShardDown) {
			t.Fatalf("workers=%d: err = %v, want the failing shard's error", workers, err)
		}
		if emitted != 0 {
			t.Fatalf("workers=%d: %d rows emitted before the shard failure surfaced", workers, emitted)
		}
	}
}

// TestEngineShardedByteIdentical: full programs over sharded stores produce
// byte-identical output to the engine-free reference for shards ∈
// {1, 4, 17}, workers ∈ {1, 16, N} and index ∈ {off, on} — the acceptance
// grid.
func TestEngineShardedByteIdentical(t *testing.T) {
	coll := randomCollection(90, 11)
	prog := mustParse(t, storeQuery)
	want := referenceResult(t, coll)
	if want == "" {
		t.Fatal("degenerate test: no results")
	}
	for _, shards := range []int{1, 4, 17} {
		for _, indexLen := range []int{0, 2} {
			s := store.New(store.Options{Shards: shards, IndexMaxLen: indexLen})
			s.RegisterDoc("db", coll)
			for _, workers := range []int{1, 16, -1} {
				e := exec.NewOver(s)
				e.Workers = workers
				res, err := e.RunContext(context.Background(), prog)
				if err != nil {
					t.Fatalf("shards=%d ix=%d workers=%d: %v", shards, indexLen, workers, err)
				}
				if got := renderResult(res); got != want {
					t.Fatalf("shards=%d ix=%d workers=%d: output differs from the reference", shards, indexLen, workers)
				}
			}
		}
	}
}

// TestVersioning: every mutation bumps the version; snapshots are immutable
// views that never observe later writes.
func TestVersioning(t *testing.T) {
	s := store.New(store.Options{})
	if v := s.Version(); v != 0 {
		t.Fatalf("fresh store at version %d, want 0", v)
	}
	c1 := randomCollection(5, 1)
	if v, _ := s.RegisterDoc("a", c1); v != 1 {
		t.Fatalf("first register → version %d, want 1", v)
	}
	snap1 := s.Snapshot()
	if v, _ := s.RegisterDoc("b", c1); v != 2 {
		t.Fatalf("second register → version %d, want 2", v)
	}
	if _, ok := snap1.Doc("b"); ok {
		t.Fatal("older snapshot observes a later registration")
	}
}

// TestCacheNeverStale is the staleness acceptance test: a cached result is
// served only until RegisterDoc bumps the store version; the next query
// misses and reflects the new data.
func TestCacheNeverStale(t *testing.T) {
	collA := randomCollection(40, 21)
	s := store.New(store.Options{Shards: 4})
	s.RegisterDoc("db", collA)
	e := exec.NewOver(s)
	e.Cache = store.NewCache(8)
	e.Workers = 4
	ctx := context.Background()

	res1, err := e.RunQuery(ctx, storeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Cache.Stats(); st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after first query: %+v, want 1 miss 0 hits 1 entry", st)
	}

	// Second run hits: identical output, no operators executed.
	res2, err := e.RunQuery(ctx, storeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Cache.Stats(); st.Hits != 1 {
		t.Fatalf("after second query: %+v, want 1 hit", st)
	}
	if renderResult(res1) != renderResult(res2) {
		t.Fatal("cache hit returned a different result")
	}
	if len(res2.Stats.Ops) != 0 {
		t.Fatal("cache hit executed operators")
	}

	// A hit must not alias cached graphs: mutating the served result and
	// querying again still returns the original data.
	res2.Out[0].AddNode("tainted", graph.TupleOf("", "label", "Z"))
	res3, err := e.RunQuery(ctx, storeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(res3) != renderResult(res1) {
		t.Fatal("mutating a served result leaked into the cache")
	}

	// Mutation: the very next query must miss and see the new collection.
	collB := randomCollection(40, 99)
	s.RegisterDoc("db", collB)
	oracle, err := exec.NewOver(store.FromMap(map[string]graph.Collection{"db": collB})).RunContext(context.Background(), mustParse(t, storeQuery))
	if err != nil {
		t.Fatal(err)
	}
	res4, err := e.RunQuery(ctx, storeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(res4) != renderResult(oracle) {
		t.Fatal("post-mutation query did not reflect the new data")
	}
	if renderResult(res4) == renderResult(res1) {
		t.Fatal("degenerate test: both collections produce identical results")
	}
	st := e.Cache.Stats()
	if st.Hits != 2 || st.Invalidations != 1 {
		t.Fatalf("after mutation: %+v, want 2 hits and 1 invalidation", st)
	}
}

func mustParse(t testing.TB, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCacheKeyIndependence: worker count and program formatting are not
// part of the cache identity; a different document set is.
func TestCacheKeyIndependence(t *testing.T) {
	s := store.New(store.Options{})
	s.RegisterDoc("db", randomCollection(20, 7))
	e := exec.NewOver(s)
	e.Cache = store.NewCache(8)
	ctx := context.Background()

	if _, err := e.RunQuery(ctx, storeQuery); err != nil {
		t.Fatal(err)
	}
	// Different worker setting, same program: must hit.
	e16 := e.Request(exec.RequestOptions{Workers: 16})
	if _, err := e16.RunQuery(ctx, storeQuery); err != nil {
		t.Fatal(err)
	}
	if st := e.Cache.Stats(); st.Hits != 1 {
		t.Fatalf("worker-count change missed the cache: %+v", st)
	}
	// Reformatted program (whitespace + comments): must hit.
	reformatted := "// a comment\n" + "graph P { node v1 where label=\"A\";\n\tnode v2 where label=\"B\"; edge (v1, v2); };\nfor P exhaustive in doc(\"db\")\nreturn graph { node P.v1; node P.v2; edge (P.v1, P.v2); };"
	if _, err := e.RunQuery(ctx, reformatted); err != nil {
		t.Fatal(err)
	}
	if st := e.Cache.Stats(); st.Hits != 2 {
		t.Fatalf("reformatted program missed the cache: %+v", st)
	}
}

// TestCacheLRU exercises the capacity bound and version discipline at the
// unit level.
func TestCacheLRU(t *testing.T) {
	c := store.NewCache(2)
	k := func(p string, v uint64) store.CacheKey {
		return store.CacheKey{Program: p, Docs: "db", Vers: strconv.FormatUint(v, 10)}
	}
	c.Put(k("a", 1), "A")
	c.Put(k("b", 1), "B")
	if _, ok := c.Get(k("a", 1)); !ok {
		t.Fatal("a evicted prematurely")
	}
	// a is now most-recent; inserting c evicts b.
	c.Put(k("c", 1), "C")
	if _, ok := c.Get(k("b", 1)); ok {
		t.Fatal("LRU kept the least-recently-used entry")
	}
	if _, ok := c.Get(k("a", 1)); !ok {
		t.Fatal("LRU evicted the recently-used entry")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 1 eviction 2 entries", st)
	}
	// Version 2 purges everything; version-1 reads and writes are dead.
	c.Put(k("d", 2), "D")
	if _, ok := c.Get(k("a", 1)); ok {
		t.Fatal("stale version served after purge")
	}
	c.Put(k("e", 1), "E")
	if _, ok := c.Get(k("e", 1)); ok {
		t.Fatal("stale-version Put stored an entry")
	}
	if _, ok := c.Get(k("d", 2)); !ok {
		t.Fatal("current-version entry lost")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("stats %+v, want 1 invalidation", st)
	}
}
