package match

import (
	"container/list"
	"sync"

	"gqldb/internal/graph"
	"gqldb/internal/obs"
	"gqldb/internal/pattern"
)

// This file implements the plan cache: the §4.4 cost model plans a search
// order (and, before that, retrieves and refines the feasible-mate lists)
// from scratch on every Find, yet a production frontend sends millions of
// structurally identical queries. The cache memoizes the complete planning
// output — feasible mates after local pruning and refinement, the chosen
// search order, and the candidate-count statistics — keyed on the canonical
// pattern shape, the data graph, and the planning-relevant options.
//
// Validity is statistics-fenced per entry: each cached plan records the
// epoch it was computed under (the engine passes the version of the
// document the graph belongs to), and a lookup hits only when its epoch
// matches the entry's — a mismatch drops just that entry. Mutating one
// document therefore invalidates only plans over that document's graphs;
// plans over graphs of untouched documents stay live. Within one document
// version the store's copy-on-write discipline guarantees graphs are
// immutable, so a plan computed once is valid for every later identical
// query. Callers outside the store (direct Find users) must change the
// epoch themselves whenever a graph mutates; a constant epoch is only
// sound over immutable graphs.

// Plan is one cached planning result. Plans are shared across concurrent
// searches and are immutable after Put: no holder may write through any of
// these slices (the aliasguard analyzer enforces this for PlanCache.Get
// results). Searchers copy the fields they need to mutate.
type Plan struct {
	// Phi[u] is the feasible-mate list of pattern node u after local
	// pruning and (when enabled) Algorithm 4.2 refinement.
	Phi [][]graph.NodeID
	// Order is the search order chosen by the planner; EstCost its
	// estimated cost.
	Order   []graph.NodeID
	EstCost float64
	// Candidate-count statistics captured at plan time (Definition 4.9).
	CandBaseline []int
	CandLocal    []int
	CandRefined  []int
}

// PlanOpts is the subset of Options that changes planning output: the
// pruning and refinement configuration determines the feasible-mate lists,
// the order mode and the γ estimator (FreqGamma) determine the search order,
// and the presence of access structures determines the retrieval path.
type PlanOpts struct {
	Prune       LocalPrune
	Refine      bool
	RefineLevel int
	Order       OrderMode
	FreqGamma   bool
	// Labels and Nbr record which access structures the evaluation had
	// (label index, neighborhood structures): retrieval differs with and
	// without them.
	Labels bool
	Nbr    bool
}

// PlanKey identifies one cached plan: the canonical pattern shape, the
// data graph it was planned against, and the planning options. The graph
// enters by identity — the key holds the pointer, which also keeps the
// graph alive until the epoch fence purges the entry.
type PlanKey struct {
	Shape string
	Graph *graph.Graph
	Opts  PlanOpts
}

// planKeyFor builds the cache key for one evaluation.
func planKeyFor(p *pattern.Pattern, g *graph.Graph, ix *Index, opt Options) PlanKey {
	return PlanKey{
		Shape: p.Shape(),
		Graph: g,
		Opts: PlanOpts{
			Prune:       opt.Prune,
			Refine:      opt.Refine,
			RefineLevel: opt.RefineLevel,
			Order:       opt.Order,
			FreqGamma:   opt.FreqGamma,
			Labels:      ix != nil && ix.Labels != nil,
			Nbr:         ix != nil && ix.Nbr != nil,
		},
	}
}

// PlanCacheStats is one plan cache's counter snapshot (process-wide
// equivalents live in internal/obs; these are per-cache, for /healthz).
type PlanCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
}

// PlanCache is an LRU cache of search plans with per-entry epoch fencing:
// each plan is stored with the epoch it was computed under, and a lookup
// whose epoch differs from the entry's drops that entry alone — there is
// no global purge, so an epoch moving for one document's graphs leaves
// every other document's plans untouched. Get and Put are safe for
// concurrent use; one cache is shared by every worker of every selection
// fan-out.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent; values are *planEntry
	entries  map[PlanKey]*list.Element

	hits, misses, evictions, invalidations int64
}

type planEntry struct {
	key   PlanKey
	epoch uint64
	plan  *Plan
}

// NewPlanCache returns a cache holding at most capacity plans (min 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[PlanKey]*list.Element),
	}
}

// SetCapacity resizes the cache bound. Startup-only: not synchronized
// against concurrent Get/Put (enforced by gqlvet's gosafe table).
func (c *PlanCache) SetCapacity(n int) {
	if n < 1 {
		n = 1
	}
	c.capacity = n
	// Bounded by the entry count at entry (evictions under c.mu only
	// shrink it), so no cancellation poll is needed.
	for i := c.order.Len(); i > c.capacity; i-- {
		c.evictOldest()
	}
}

// Get returns the plan for key, if present and computed under the same
// epoch. An entry whose epoch differs from the lookup's is invalidated —
// its statistics are no longer known-valid — and the lookup misses. The
// returned plan is shared and must be treated as read-only.
func (c *PlanCache) Get(epoch uint64, key PlanKey) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.miss()
		return nil, false
	}
	e := el.Value.(*planEntry)
	if e.epoch != epoch {
		if epoch > e.epoch {
			// The document moved past the entry's epoch: its statistics are
			// no longer known-valid, so drop it. An older lookup (a reader on
			// a pre-mutation snapshot) merely misses — it must not evict a
			// plan that is current for everyone else.
			c.order.Remove(el)
			delete(c.entries, key)
			c.invalidations++
			obs.PlanCacheInvalidations.Inc()
		}
		c.miss()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	obs.PlanCacheHits.Inc()
	return e.plan, true
}

// Put stores plan under key for the given epoch, evicting the
// least-recently-used plan past capacity. An existing entry for the key
// is overwritten, adopting the new epoch.
func (c *PlanCache) Put(epoch uint64, key PlanKey, plan *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*planEntry)
		e.plan, e.epoch = plan, epoch
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&planEntry{key: key, epoch: epoch, plan: plan})
	// One Put grows the LRU by one and SetCapacity shrinks it to capacity,
	// so one eviction restores the bound.
	if c.order.Len() > c.capacity {
		c.evictOldest()
		c.evictions++
		obs.PlanCacheEvictions.Inc()
	}
}

// Stats returns the cache's counter snapshot.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       c.order.Len(),
		Capacity:      c.capacity,
	}
}

// miss counts one miss. Callers hold c.mu.
func (c *PlanCache) miss() {
	c.misses++
	obs.PlanCacheMisses.Inc()
}

// evictOldest drops the back of the LRU list. Callers hold c.mu.
func (c *PlanCache) evictOldest() {
	el := c.order.Back()
	if el == nil {
		return
	}
	c.order.Remove(el)
	delete(c.entries, el.Value.(*planEntry).key)
}
