// Package store is the versioned, sharded document layer under the query
// engine. The paper's access methods (§4) assume a database of many small
// graphs scanned and pruned per query; at production scale that scan is the
// dominant cost, so the store partitions every registered collection into
// round-robin shards (each with its own optional path-feature index, the
// GraphGrep-style filter of internal/gindex) and serves queries from
// immutable snapshots:
//
//   - Versioning: every write is a mutation batch committed by ApplyBatch
//     (mutation.go) — RegisterDoc is the one-mutation batch OpRegisterDoc —
//     and each commit bumps a monotonic store version and stamps every
//     document it touches with the new value. Result-cache keys record the
//     version of each document a program read (cache.go), so a write
//     invalidates only the cached results that read the written document.
//   - Durability: OpenDurable (durable.go) recovers a store from a
//     checkpoint plus write-ahead log (wal.go) and attaches the log, so
//     every later batch, registrations included, is logged before it
//     commits.
//   - Snapshots: readers take a Snapshot — an immutable view of all
//     documents at one version. In-flight queries keep their snapshot for
//     the whole program, so a concurrent mutation never tears a result.
//   - Sharding: each document's collection is dealt round-robin into
//     shards at registration. In process the Coordinator (coordinator.go)
//     runs every shard's filter and then one selection pass over the
//     document; with a ShardSelector (the shard wire) it fans selection
//     across shards in one pool round and, once every shard has answered,
//     emits the matches in the exact order a serial scan of the unsharded
//     collection would produce.
package store

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"gqldb/internal/algebra"
	"gqldb/internal/gindex"
	"gqldb/internal/graph"
	"gqldb/internal/match"
)

// Options configures a DocStore.
type Options struct {
	// Shards is the number of partitions per registered document.
	// 0 or 1 keeps documents unsharded (a single shard holding the whole
	// collection) — the exact behavior of the pre-store engine.
	Shards int
	// IndexMaxLen, when positive, builds a per-shard path-feature index
	// (gindex.Build with this maximum path length) at registration, so the
	// for-clause filters candidates inside every shard before matching.
	// Building enumerates simple paths of each member graph; enable it for
	// collections of small graphs, not for one huge dense graph.
	IndexMaxLen int
}

// DocStore is the document store: a copy-on-write document map under a
// mutex. Every write is a mutation batch committed through ApplyBatch
// (RegisterDoc is a one-mutation batch), which clones the map (documents
// themselves are immutable after commit), so snapshots are O(1) pointer
// grabs and never block queries; writes are safe while queries run. A
// store opened with OpenDurable also has a write-ahead log attached, and
// every batch is logged before it commits.
type DocStore struct {
	opts Options

	// wmu serializes writers (ApplyBatch, Checkpoint): a staged mutation
	// batch must commit against the exact state it was computed from, so
	// writers are mutually exclusive end-to-end while readers keep going
	// through mu. Lock order: wmu before mu.
	wmu sync.Mutex
	// wal, dir and checkpointEvery are set by OpenDurable once recovery is
	// done (nil wal: an in-memory store). Guarded by wmu.
	wal             *WAL
	dir             string
	checkpointEvery int

	mu      sync.RWMutex
	version uint64
	docs    map[string]*Doc
}

// New returns an empty in-memory DocStore with the given options.
func New(opts Options) *DocStore {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	return &DocStore{opts: opts, docs: map[string]*Doc{}}
}

// FromMap wraps a plain document map into an unsharded, unindexed DocStore
// (exec.NewOver(store.FromMap(m)) is the engine over a map). The map is read
// once; later changes to it are not observed.
func FromMap(m map[string]graph.Collection) *DocStore {
	s := New(Options{})
	// Deterministic registration order so version numbers are reproducible.
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		// Without a WAL a registration cannot fail.
		_, _ = s.RegisterDoc(name, m[name])
	}
	return s
}

// Snapshot returns the current immutable view.
func (s *DocStore) Snapshot() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Snapshot{version: s.version, docs: s.docs}
}

// Version returns the current store version.
func (s *DocStore) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// RegisterDoc binds name to c, replacing any previous binding, as the
// one-mutation batch OpRegisterDoc: the document is partitioned into the
// store's shard count (building per-shard indexes when configured), the
// version bumps, and with a WAL attached the registration is logged
// before it commits. It returns the new store version. The collection is
// captured as the document's canonical order; do not mutate its graphs
// after registration.
func (s *DocStore) RegisterDoc(name string, c graph.Collection) (uint64, error) {
	res, err := s.ApplyBatch(context.Background(), []Mutation{{Op: OpRegisterDoc, Doc: name, Coll: c}})
	if err != nil {
		return 0, err
	}
	return res.Version, nil
}

// Snapshot is one immutable view of the store: the documents present at a
// single version. Queries hold a snapshot for their whole program, so every
// for-clause of one program reads the same data even while RegisterDoc runs
// concurrently.
type Snapshot struct {
	version uint64
	docs    map[string]*Doc
}

// emptySnapshot serves engines constructed without a store.
var emptySnapshot = &Snapshot{}

// EmptySnapshot returns a shared snapshot of nothing at version 0.
func EmptySnapshot() *Snapshot { return emptySnapshot }

// Version returns the snapshot's store version.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Doc returns the named document.
func (sn *Snapshot) Doc(name string) (*Doc, bool) {
	d, ok := sn.docs[name]
	return d, ok
}

// Docs returns the bound document names, sorted.
func (sn *Snapshot) Docs() []string {
	names := make([]string, 0, len(sn.docs))
	for name := range sn.docs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Doc is one registered document: the collection in its canonical
// (registration) order, its partition and the §4 index of every large
// member. Immutable after Build.
type Doc struct {
	// Name is the binding name (the doc("...") argument).
	Name string

	coll   graph.Collection
	shards []*Shard
	// mix[ord] is the label index and radius-1 profiles of the member at
	// canonical ordinal ord, built when it has at least indexMinNodes nodes;
	// nil (the whole slice, when no member qualifies) otherwise.
	mix []*match.Index

	// version is the store version at which the document was committed
	// (0 for documents built outside a store). Set by commitApply before
	// the document is published; immutable afterwards.
	version uint64

	// statsOnce guards the lazy attribute-inventory computation; the
	// document itself is immutable after Build, so the computed stats are
	// valid for the document's lifetime.
	statsOnce sync.Once
	stats     *DocStats

	// hashOnce guards the lazy content-hash computation (ContentHash).
	hashOnce sync.Once
	hash     string
}

// Collection returns the document in canonical order. Callers must treat
// it as read-only.
func (d *Doc) Collection() graph.Collection { return d.coll }

// Version returns the store version at which the document was installed
// (0 for documents built outside a store). Reported in the multi-process
// handshake for observability; ContentHash is the identity.
func (d *Doc) Version() uint64 { return d.version }

// ContentHash returns CollectionHash of the document's canonical
// collection, computed lazily once (the document is immutable after
// Build). Two processes that loaded the same graphs in the same order agree
// on the hash regardless of their local store versions, so it is the
// identity the multi-process version handshake compares: a RegisterDoc on
// the frontend changes the content, the hash diverges from the shard's
// mirror, and the shard is resynced.
func (d *Doc) ContentHash() string {
	d.hashOnce.Do(func() { d.hash = CollectionHash(d.coll) })
	return d.hash
}

// CollectionHash is the content hash of a collection: FNV-64a over its
// binary serialization, as 16 hex digits. A shard mirror checks a pushed
// collection against the hash the frontend sent with it.
func CollectionHash(c graph.Collection) string {
	h := fnv.New64a()
	// WriteBinary on a hash never fails; a marshal error (impossible for
	// in-memory graphs) would surface as a handshake mismatch, which is
	// the safe direction.
	_ = graph.WriteBinary(h, c)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Len returns the number of member graphs.
func (d *Doc) Len() int { return len(d.coll) }

// Shards returns the partition. Callers must treat it as read-only.
func (d *Doc) Shards() []*Shard { return d.shards }

// Sharded reports whether the document is split across more than one shard.
func (d *Doc) Sharded() bool { return len(d.shards) > 1 }

// Shard is one partition of a document: the member graphs it owns,
// their ordinals in the document's canonical order (ascending — the
// partition preserves relative order) and an optional path-feature index
// over just this shard.
type Shard struct {
	// Ords maps shard-local position to canonical-collection ordinal.
	Ords []int32
	// Coll holds the shard's graphs, parallel to Ords.
	Coll graph.Collection
	// Ix is the shard-local path index (nil when indexing is disabled).
	Ix *gindex.Index
}

// indexMinNodes is the member size, in nodes, from which the store keeps a
// match.Index and serves the member with the paper's access methods: below
// it the baseline scan is cheaper per query than profile pruning,
// refinement and greedy ordering. DESIGN.md §9 has the measured crossover
// this constant is read from.
const indexMinNodes = 128

// MemberIndex returns the §4 index of the member at canonical ordinal
// ord, or nil when the member is below indexMinNodes. The index is shared
// read-only by every selection worker; callers must not modify it.
func (d *Doc) MemberIndex(ord int) *match.Index {
	if d.mix == nil {
		return nil
	}
	return d.mix[ord]
}

// indexMember builds the index of the member at ord when it is large
// enough and drops it otherwise. The document must still be private to its
// builder.
func (d *Doc) indexMember(ord int) {
	g := d.coll[ord]
	if g.NumNodes() < indexMinNodes {
		if d.mix != nil {
			d.mix[ord] = nil
		}
		return
	}
	if d.mix == nil {
		d.mix = make([]*match.Index, len(d.coll))
	}
	d.mix[ord] = match.BuildIndex(g, 1, false)
}

// method is the store's one access-method rule: the selection kernel asks
// it, per member (by canonical ordinal), for the index and options to match
// with. It reads only what the query says — Exhaustive and Limit — plus
// the process-local instrumentation (CollectStats, Plans, PlanEpoch); every
// other field of the caller's options is ignored:
//
//   - an unindexed member: §5.1's baseline, retrieval by node attributes
//     and search in declaration order;
//   - an indexed member, every row wanted (exhaustive, no Limit):
//     match.Optimized — profile pruning, refinement and the greedy §4.4
//     order;
//   - an indexed member, first-match or a Limit: profile pruning and
//     refinement in declaration order, so the rows kept are the same prefix
//     the baseline would return.
//
// Answer order does not depend on the choice: match.FindContext defines it
// by the query.
func (d *Doc) method() algebra.Method {
	return func(ord int, opt match.Options) (*match.Index, match.Options) {
		ix := d.MemberIndex(ord)
		o := match.Options{}
		if ix != nil {
			o = match.Optimized()
			if !opt.Exhaustive || opt.Limit > 0 {
				o.Order, o.FreqGamma = match.OrderInput, false
			}
		}
		o.Exhaustive, o.Limit = opt.Exhaustive, opt.Limit
		o.CollectStats, o.Plans, o.PlanEpoch = opt.CollectStats, opt.Plans, opt.PlanEpoch
		return ix, o
	}
}

// DocBuilder accumulates a document's collection and partitions it into
// shards. Add is an unsynchronized mutator: build on one goroutine (the
// coordinator), then hand the immutable Doc to the store — enforced by
// gqlvet's gosafe table.
type DocBuilder struct {
	name   string
	shards int
	ixLen  int
	coll   graph.Collection
}

// NewDocBuilder returns a builder for a document with the given shard count
// (Build clamps it with clampShards) and per-shard index path length (0
// disables indexing).
func NewDocBuilder(name string, shards, indexMaxLen int) *DocBuilder {
	return &DocBuilder{name: name, shards: shards, ixLen: indexMaxLen}
}

// Add appends g to the document under construction. Coordinator-only: not
// safe for concurrent use.
func (b *DocBuilder) Add(g *graph.Graph) { b.coll = append(b.coll, g) }

// Build partitions the accumulated collection and builds the per-shard path
// indexes and the per-member §4 indexes of members with at least
// indexMinNodes nodes. The returned Doc is immutable; the builder must not
// be reused.
func (b *DocBuilder) Build() *Doc {
	d := &Doc{Name: b.name, coll: b.coll}
	n := clampShards(b.shards, len(b.coll))
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = &Shard{}
	}
	for ord, g := range b.coll {
		sh := shards[shardOf(ord, n)]
		sh.Ords = append(sh.Ords, int32(ord))
		sh.Coll = append(sh.Coll, g)
	}
	if b.ixLen > 0 {
		for _, sh := range shards {
			sh.Ix = gindex.Build(sh.Coll, b.ixLen)
		}
	}
	for ord := range d.coll {
		d.indexMember(ord)
	}
	d.shards = shards
	return d
}

// shardOf deals members to shards round-robin by canonical ordinal: every
// shard holds within one member of len/shards, whatever the member names,
// and the assignment is deterministic across processes (a shard mirror
// partitions a pushed document exactly as its frontend does).
func shardOf(ord, shards int) int { return ord % shards }
