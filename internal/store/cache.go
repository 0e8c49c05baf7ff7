package store

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gqldb/internal/obs"
)

// CacheKey identifies one cached whole-program result. Program is the
// canonical token-stream rendering of the source (whitespace- and
// comment-insensitive), Docs the sorted NUL-joined document names the
// program reads, and Vers the NUL-joined per-document versions (parallel
// to Docs, "-" for a document absent from the snapshot) the result was
// computed from. Document versions are drawn from the store's single
// monotonic counter, so a (name, version) pair never refers to two
// different document states. Worker count is deliberately absent:
// parallelism never changes a result, so any worker setting may serve any
// cached entry.
type CacheKey struct {
	Program string
	Docs    string
	Vers    string
}

// KeyFor builds the cache key for program evaluated against snap, reading
// the named documents. Use this instead of assembling a CacheKey by hand:
// it owns the sorted-Docs and per-document-version encoding.
func KeyFor(program string, snap *Snapshot, docs []string) CacheKey {
	sorted := make([]string, len(docs))
	copy(sorted, docs)
	sort.Strings(sorted)
	vers := make([]string, len(sorted))
	for i, name := range sorted {
		if d, ok := snap.Doc(name); ok {
			vers[i] = strconv.FormatUint(d.Version(), 10)
		} else {
			vers[i] = "-"
		}
	}
	return CacheKey{
		Program: program,
		Docs:    strings.Join(sorted, "\x00"),
		Vers:    strings.Join(vers, "\x00"),
	}
}

// CacheStats is one cache's counter snapshot (the process-wide equivalents
// live in internal/obs; these are per-cache, for /healthz).
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
}

// Cache is an LRU result cache with invalidation by per-document version
// vector: every entry's key records the exact version of each document the
// result read, so an entry can only be served to a query evaluated against
// those same document states — staleness is structurally impossible. When
// an access reveals that a document has moved forward, only the entries
// that read an older version of that document are purged; results over
// untouched documents stay live across mutations to unrelated ones.
//
// Values are opaque (any); the engine layer owns cloning in and out so a
// cached result is never aliased by two callers.
type Cache struct {
	mu       sync.Mutex
	capacity int
	latest   map[string]uint64 // newest version seen per document
	order    *list.List        // front = most recent; values are *cacheEntry
	entries  map[CacheKey]*list.Element

	hits, misses, evictions, invalidations int64
}

type cacheEntry struct {
	key CacheKey
	val any
}

// NewCache returns a cache holding at most capacity entries (min 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		latest:   make(map[string]uint64),
		order:    list.New(),
		entries:  make(map[CacheKey]*list.Element),
	}
}

// SetCapacity resizes the cache bound. Startup-only: not synchronized
// against concurrent Get/Put (enforced by gqlvet's gosafe table).
func (c *Cache) SetCapacity(n int) {
	if n < 1 {
		n = 1
	}
	c.capacity = n
	for c.order.Len() > c.capacity { //gqlvet:ignore ctxpoll -- shrinks the LRU by one per iteration; bounded by entry count, not data
		c.evictOldest()
	}
}

// Get returns the entry for key, if present and current. A key carrying a
// newer version of some document purges the entries that read an older
// version of that document — and only those; a key older than the newest
// seen for any of its documents can never hit.
func (c *Cache) Get(key CacheKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.advance(key) {
		c.miss()
		return nil, false
	}
	el, ok := c.entries[key]
	if !ok {
		c.miss()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	obs.CacheHits.Inc()
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key, evicting the least-recently-used entry past
// capacity. Entries reading document versions older than the newest seen
// are discarded rather than stored — a result computed from a pre-mutation
// snapshot must never become servable after the mutation.
func (c *Cache) Put(key CacheKey, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.advance(key) {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	// One Put grows the LRU by one and SetCapacity shrinks it to capacity,
	// so one eviction restores the bound.
	if c.order.Len() > c.capacity {
		c.evictOldest()
		c.evictions++
		obs.CacheEvictions.Inc()
	}
}

// Stats returns the cache's counter snapshot.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       c.order.Len(),
		Capacity:      c.capacity,
	}
}

// splitKey decomposes a key's document and version vectors. A malformed
// key (vector lengths disagree) yields nil, nil.
func splitKey(key CacheKey) (docs, vers []string) {
	if key.Docs == "" {
		return nil, nil
	}
	docs = strings.Split(key.Docs, "\x00")
	vers = strings.Split(key.Vers, "\x00")
	if len(docs) != len(vers) {
		return nil, nil
	}
	return docs, vers
}

// advance moves each document's live version forward to what key carries,
// purging entries that read older versions of exactly those documents. It
// reports whether key itself is current (no document older than the newest
// seen). Callers hold c.mu.
func (c *Cache) advance(key CacheKey) bool {
	if key.Docs == "" {
		return true // reads no documents; nothing can invalidate it
	}
	docs, vers := splitKey(key)
	if docs == nil {
		return false
	}
	current := true
	for i, doc := range docs {
		v, err := strconv.ParseUint(vers[i], 10, 64)
		if err != nil {
			continue // "-": document absent from the snapshot; nothing to fence
		}
		switch {
		case v > c.latest[doc]:
			c.purgeDoc(doc, v)
			c.latest[doc] = v
		case v < c.latest[doc]:
			current = false
		}
	}
	return current
}

// purgeDoc removes every entry that read doc at a version older than v,
// counting one invalidation if anything was removed. Callers hold c.mu.
func (c *Cache) purgeDoc(doc string, v uint64) {
	removed := false
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		key := el.Value.(*cacheEntry).key
		if keyReadsDocBefore(key, doc, v) {
			c.order.Remove(el)
			delete(c.entries, key)
			removed = true
		}
	}
	if removed {
		c.invalidations++
		obs.CacheInvalidations.Inc()
	}
}

// keyReadsDocBefore reports whether key reads doc at a version below v.
func keyReadsDocBefore(key CacheKey, doc string, v uint64) bool {
	docs, vers := splitKey(key)
	for i, d := range docs {
		if d != doc {
			continue
		}
		ev, err := strconv.ParseUint(vers[i], 10, 64)
		return err != nil || ev < v
	}
	return false
}

// miss counts one miss. Callers hold c.mu.
func (c *Cache) miss() {
	c.misses++
	obs.CacheMisses.Inc()
}

// evictOldest drops the back of the LRU list. Callers hold c.mu.
func (c *Cache) evictOldest() {
	el := c.order.Back()
	if el == nil {
		return
	}
	c.order.Remove(el)
	delete(c.entries, el.Value.(*cacheEntry).key)
}
