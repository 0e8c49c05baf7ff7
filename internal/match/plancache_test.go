package match

import (
	"fmt"
	"reflect"
	"testing"

	"gqldb/internal/graph"
	"gqldb/internal/pattern"
)

// TestPlanCacheHitMiss pins the basic contract: a lookup before Put
// misses, a lookup after Put at the same epoch hits, and the counters
// track both.
func TestPlanCacheHitMiss(t *testing.T) {
	g := fig416()
	p := trianglePattern()
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	c := NewPlanCache(8)
	key := planKeyFor(p, g, nil, Optimized())
	if _, ok := c.Get(1, key); ok {
		t.Fatal("hit before Put")
	}
	c.Put(1, key, &Plan{Order: []graph.NodeID{0, 1, 2}})
	pl, ok := c.Get(1, key)
	if !ok || len(pl.Order) != 3 {
		t.Fatalf("miss after Put: %v %v", pl, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestPlanCacheEpochFence pins the statistics-validity fence: an epoch
// bump purges every held plan, and plans for superseded epochs are
// neither stored nor served.
func TestPlanCacheEpochFence(t *testing.T) {
	g := fig416()
	p := trianglePattern()
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	c := NewPlanCache(8)
	key := planKeyFor(p, g, nil, Optimized())
	c.Put(1, key, &Plan{})
	// Newer epoch: the epoch-1 plan is stale and must be purged.
	if _, ok := c.Get(2, key); ok {
		t.Fatal("stale plan served after epoch bump")
	}
	if st := c.Stats(); st.Entries != 0 || st.Invalidations != 1 {
		t.Errorf("stats after bump = %+v, want 0 entries, 1 invalidation", st)
	}
	// A put for a superseded epoch is discarded.
	c.Put(1, key, &Plan{})
	if _, ok := c.Get(2, key); ok {
		t.Fatal("superseded-epoch put was stored")
	}
	// And a read carrying an older epoch than the latest can never hit.
	c.Put(3, key, &Plan{})
	if _, ok := c.Get(2, key); ok {
		t.Fatal("older-epoch read hit a newer plan")
	}
	if _, ok := c.Get(3, key); !ok {
		t.Fatal("current-epoch read missed")
	}
}

// TestPlanCacheLRU pins capacity bounding: the least-recently-used entry
// is evicted first, and SetCapacity shrinks the cache.
func TestPlanCacheLRU(t *testing.T) {
	g := fig416()
	c := NewPlanCache(2)
	keys := make([]PlanKey, 3)
	for i := range keys {
		p := pattern.New(fmt.Sprintf("P%d", i))
		p.LabelNode("a", fmt.Sprintf("L%d", i))
		if err := p.Compile(); err != nil {
			t.Fatal(err)
		}
		keys[i] = planKeyFor(p, g, nil, Options{})
	}
	c.Put(1, keys[0], &Plan{})
	c.Put(1, keys[1], &Plan{})
	c.Get(1, keys[0]) // refresh 0; 1 is now LRU
	c.Put(1, keys[2], &Plan{})
	if _, ok := c.Get(1, keys[1]); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get(1, keys[0]); !ok {
		t.Error("refreshed entry was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	c.SetCapacity(1)
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries after shrink = %d, want 1", st.Entries)
	}
}

// TestPatternShape pins shape canonicalization: independently built but
// structurally identical patterns share a shape, and any change to tags,
// predicates, wiring or direction changes it.
func TestPatternShape(t *testing.T) {
	shape := func(p *pattern.Pattern) string {
		t.Helper()
		if err := p.Compile(); err != nil {
			t.Fatal(err)
		}
		return p.Shape()
	}
	s1, s2 := shape(trianglePattern()), shape(trianglePattern())
	if s1 != s2 {
		t.Errorf("identical patterns differ: %q vs %q", s1, s2)
	}
	d := pattern.New("P") // one label changed: different shape
	a := d.LabelNode("a", "A")
	b := d.LabelNode("b", "B")
	c := d.LabelNode("c", "X")
	d.AddEdge("", a, b, nil, nil)
	d.AddEdge("", b, c, nil, nil)
	d.AddEdge("", c, a, nil, nil)
	if shape(d) == s1 {
		t.Error("label change did not change the shape")
	}
	u := pattern.New("P") // same nodes, different wiring: different shape
	a = u.LabelNode("a", "A")
	b = u.LabelNode("b", "B")
	c = u.LabelNode("c", "C")
	u.AddEdge("", a, b, nil, nil)
	u.AddEdge("", b, c, nil, nil)
	u.AddEdge("", a, c, nil, nil)
	if shape(u) == s1 {
		t.Error("edge rewiring did not change the shape")
	}
}

// TestPlannedMatchesUnplanned runs every option combination with and
// without a plan cache (cold, then hot) and requires identical mappings;
// the hot run must report the cache hit and skip the planning phases.
func TestPlannedMatchesUnplanned(t *testing.T) {
	g := fig416()
	ix := BuildIndex(g, 1, true)
	p := trianglePattern()
	for i, opt := range allOptions() {
		want, _, err := Find(p, g, ix, opt)
		if err != nil {
			t.Fatalf("opt %d: %v", i, err)
		}
		opt.Plans = NewPlanCache(4)
		opt.PlanEpoch = 1
		cold, cst, err := Find(p, g, ix, opt)
		if err != nil {
			t.Fatalf("opt %d cold: %v", i, err)
		}
		hot, hst, err := Find(p, g, ix, opt)
		if err != nil {
			t.Fatalf("opt %d hot: %v", i, err)
		}
		if !reflect.DeepEqual(want, cold) || !reflect.DeepEqual(want, hot) {
			t.Fatalf("opt %d: planned results differ from unplanned", i)
		}
		if cst.PlanCacheHit {
			t.Errorf("opt %d: cold run reported a plan-cache hit", i)
		}
		if !hst.PlanCacheHit {
			t.Errorf("opt %d: hot run missed the plan cache", i)
		}
		if hst.RetrieveTime != 0 || hst.OrderTime != 0 {
			t.Errorf("opt %d: hot run spent time in skipped phases: retrieve %v, order %v",
				i, hst.RetrieveTime, hst.OrderTime)
		}
		if !reflect.DeepEqual(cst.Order, hst.Order) ||
			!reflect.DeepEqual(cst.CandRefined, hst.CandRefined) {
			t.Errorf("opt %d: hot statistics differ from cold", i)
		}
	}
}

// manyMatches builds a complete bipartite A→B graph and its 2-node
// pattern: k² matches exercise the emit hot path.
func manyMatches(k int) (*graph.Graph, *pattern.Pattern) {
	g := graph.New("G")
	as := make([]graph.NodeID, k)
	bs := make([]graph.NodeID, k)
	for i := 0; i < k; i++ {
		as[i] = g.AddNode(fmt.Sprintf("A%d", i), graph.TupleOf("", "label", "A"))
		bs[i] = g.AddNode(fmt.Sprintf("B%d", i), graph.TupleOf("", "label", "B"))
	}
	for _, a := range as {
		for _, b := range bs {
			g.AddEdge("", a, b, nil)
		}
	}
	p := pattern.New("P")
	pa := p.LabelNode("a", "A")
	pb := p.LabelNode("b", "B")
	p.AddEdge("", pa, pb, nil, nil)
	return g, p
}

// TestSearchAllocBound guards the zero-alloc inner loop: a hot-plan Find
// over a graph with 256 matches must stay within a fixed allocation
// budget — the pre-arena emit alone cost two allocations per match (512+),
// and the map-based injectivity/dedup scratch added per-candidate churn.
func TestSearchAllocBound(t *testing.T) {
	g, p := manyMatches(16)
	ix := BuildIndex(g, 1, false)
	opt := Optimized()
	opt.AdjIterate = true
	opt.Plans = NewPlanCache(4)
	opt.PlanEpoch = 1
	if _, _, err := Find(p, g, ix, opt); err != nil { // warm the cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		ms, _, err := Find(p, g, ix, opt)
		if err != nil || len(ms) != 256 {
			t.Fatalf("%d matches, err %v", len(ms), err)
		}
	})
	if allocs > 60 {
		t.Errorf("hot-plan Find allocates %.0f per run over 256 matches, want <= 60", allocs)
	}
}

// BenchmarkMatchPlanned measures the plan cache's effect end-to-end:
// "cold" pays retrieval+refinement+ordering every iteration (fresh cache),
// "hot" reuses one cached plan, and "uncached" is the pre-cache baseline.
func BenchmarkMatchPlanned(b *testing.B) {
	g, p := manyMatches(16)
	ix := BuildIndex(g, 1, false)
	base := Optimized()

	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Find(p, g, ix, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opt := base
			opt.Plans = NewPlanCache(4)
			opt.PlanEpoch = 1
			if _, _, err := Find(p, g, ix, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hot", func(b *testing.B) {
		opt := base
		opt.Plans = NewPlanCache(4)
		opt.PlanEpoch = 1
		if _, _, err := Find(p, g, ix, opt); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := Find(p, g, ix, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
