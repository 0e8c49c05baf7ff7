// Mutation application: the transactional write path of the store. A
// batch of mutations stages against the current state under the writer
// lock, validates every operation (accumulating positioned errors, graph.
// Builder-style), and commits all touched documents under a single version
// bump — or commits nothing. It is the store's only commit path: document
// registration is the OpRegisterDoc mutation, and with a WAL attached
// every batch is logged before it commits. Node/edge deltas are maintained
// incrementally: the touched graph keeps its canonical ordinal (shardOf
// depends only on the ordinal), so only its shard is rebuilt and the
// shard's path index is updated in place of a full Build. Graph drops
// shift ordinals and, like whole-document registrations, force a full
// repartition of the document — the documented slow path.
package store

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"gqldb/internal/gindex"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/obs"
)

// MutationOp discriminates the store-level mutation operations, mirroring
// the language's mutation statement kinds.
type MutationOp uint8

// Mutation operations.
const (
	OpCreateGraph MutationOp = iota
	OpDropGraph
	OpInsertNode
	OpInsertEdge
	OpDeleteNode
	OpDeleteEdge
	// OpRegisterDoc replaces the whole document with Coll (creating it if
	// absent). Duplicate graph names are allowed.
	OpRegisterDoc
)

// String names the operation for positioned errors and the WAL dump tool.
func (op MutationOp) String() string {
	switch op {
	case OpCreateGraph:
		return "create graph"
	case OpDropGraph:
		return "drop graph"
	case OpInsertNode:
		return "insert node"
	case OpInsertEdge:
		return "insert edge"
	case OpDeleteNode:
		return "delete node"
	case OpDeleteEdge:
		return "delete edge"
	case OpRegisterDoc:
		return "register doc"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Mutation is one store-level write: the lowered, language-independent
// form of a mutation statement (and the unit the WAL serializes).
type Mutation struct {
	// Op selects the operation.
	Op MutationOp
	// Doc is the target document name.
	Doc string
	// Graph is the target graph name within the document.
	Graph string
	// Name is the node/edge name for insert/delete operations.
	Name string
	// From and To name the endpoints of an inserted edge.
	From, To string
	// Attrs carries attribute literals for create graph / insert node /
	// insert edge. The store takes ownership; callers must not mutate it.
	Attrs *graph.Tuple
	// Body is an optional literal body for OpCreateGraph (its Name should
	// equal Graph). The store takes ownership.
	Body *graph.Graph
	// Coll is the replacement collection of OpRegisterDoc, in canonical
	// order. The store takes ownership of its graphs.
	Coll graph.Collection
}

// ApplyResult summarizes one committed batch.
type ApplyResult struct {
	// Version is the store version the batch committed as.
	Version uint64 `json:"version"`
	// Mutations is the number of mutations in the batch.
	Mutations     int `json:"mutations"`
	GraphsCreated int `json:"graphs_created"`
	GraphsDropped int `json:"graphs_dropped"`
	NodesAdded    int `json:"nodes_added"`
	EdgesAdded    int `json:"edges_added"`
	NodesDeleted  int `json:"nodes_deleted"`
	EdgesDeleted  int `json:"edges_deleted"`
}

// ApplyBatch applies the batch transactionally and returns the commit
// summary. All-or-nothing: on error the store is unchanged and every
// invalid mutation is reported with its batch position. With a WAL
// attached the staged batch is appended (fsynced under the Sync policy)
// before it commits, so by the time the caller sees a result the batch is
// recoverable; a failed append commits nothing.
func (s *DocStore) ApplyBatch(ctx context.Context, muts []Mutation) (*ApplyResult, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	st, err := s.stageApply(ctx, muts)
	if err != nil {
		return nil, err
	}
	st.result.Version = s.Version() + 1
	if s.wal != nil {
		if err := s.wal.Append(st.result.Version, muts); err != nil {
			return nil, err
		}
	}
	s.commitApply(st, st.result.Version)
	if s.wal != nil && s.checkpointEvery > 0 && s.wal.Records() >= s.checkpointEvery {
		if err := s.checkpointLocked(); err != nil {
			// The commit is already durable in the WAL; a failed checkpoint
			// only delays truncation.
			return &st.result, fmt.Errorf("store: durable: checkpoint: %w", err)
		}
	}
	return &st.result, nil
}

// stagedDoc is the working state of one document touched by a batch.
type stagedDoc struct {
	name string
	// base is the document the stage started from (nil for a fresh doc).
	base *Doc
	// coll is the working collection: base order with changed ordinals
	// replaced/appended in place. Unchanged entries alias the base.
	coll graph.Collection
	// byName maps graph name to ordinal (first occurrence wins for
	// collections registered with duplicate names).
	byName map[string]int
	// owned marks ordinals whose graph the stage may mutate (cloned from
	// the base, freshly created, or rebuilt).
	owned map[int]bool
	// changed records ordinals whose graph differs from the base.
	changed map[int]bool
	// repartition is set when a graph was removed or the whole collection
	// replaced: ordinals shifted, the commit must repartition the document
	// from scratch.
	repartition bool
}

type stagedApply struct {
	result ApplyResult
	docs   map[string]*stagedDoc
}

// stageApply computes the post-batch state of every touched document
// without publishing anything. Caller holds wmu, so the store state is
// stable for the whole stage+commit. Errors accumulate across the batch
// (every bad mutation is reported, with its position) and any error
// aborts the whole batch.
func (s *DocStore) stageApply(ctx context.Context, muts []Mutation) (*stagedApply, error) {
	if len(muts) == 0 {
		return nil, errors.New("store: apply: empty batch")
	}
	st := &stagedApply{docs: make(map[string]*stagedDoc)}
	st.result.Mutations = len(muts)
	snap := s.Snapshot()
	var errs []error
	fail := func(i int, m *Mutation, format string, args ...any) {
		errs = append(errs, fmt.Errorf("store: apply: mutation %d (%s): %s",
			i, m.Op, fmt.Sprintf(format, args...)))
	}
	for i := range muts {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("store: apply: %w", err)
		}
		m := &muts[i]
		sd, ok := st.docs[m.Doc]
		if !ok {
			base, exists := snap.Doc(m.Doc)
			if !exists && m.Op != OpCreateGraph && m.Op != OpRegisterDoc {
				fail(i, m, "unknown document %q", m.Doc)
				continue
			}
			sd = newStagedDoc(m.Doc, base)
			st.docs[m.Doc] = sd
		}
		if err := sd.apply(m, &st.result); err != nil {
			errs = append(errs, fmt.Errorf("store: apply: mutation %d (%s): %w", i, m.Op, err))
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return st, nil
}

func newStagedDoc(name string, base *Doc) *stagedDoc {
	sd := &stagedDoc{
		name:    name,
		base:    base,
		owned:   make(map[int]bool),
		changed: make(map[int]bool),
	}
	if base != nil {
		sd.coll = append(graph.Collection(nil), base.coll...)
	}
	sd.indexNames()
	return sd
}

// indexNames rebuilds byName from the working collection.
func (sd *stagedDoc) indexNames() {
	sd.byName = make(map[string]int, len(sd.coll))
	for ord, g := range sd.coll {
		if _, dup := sd.byName[g.Name]; !dup {
			sd.byName[g.Name] = ord
		}
	}
}

// workGraph returns a mutable copy of the graph at ord, cloning the shared
// base graph on first touch.
func (sd *stagedDoc) workGraph(ord int) *graph.Graph {
	if !sd.owned[ord] {
		sd.coll[ord] = sd.coll[ord].Clone()
		sd.owned[ord] = true
	}
	sd.changed[ord] = true
	return sd.coll[ord]
}

// apply validates and applies one mutation to the staged document.
func (sd *stagedDoc) apply(m *Mutation, res *ApplyResult) error {
	switch m.Op {
	case OpCreateGraph:
		if _, dup := sd.byName[m.Graph]; dup {
			return fmt.Errorf("store: graph %q already exists in document %q", m.Graph, sd.name)
		}
		g := m.Body
		if g == nil {
			g = graph.New(m.Graph)
			g.Attrs = m.Attrs
		} else {
			if g.Name != m.Graph {
				return fmt.Errorf("store: body graph is named %q, statement targets %q", g.Name, m.Graph)
			}
			if err := g.Err(); err != nil {
				return err
			}
		}
		ord := len(sd.coll)
		sd.coll = append(sd.coll, g)
		sd.byName[m.Graph] = ord
		sd.owned[ord] = true
		sd.changed[ord] = true
		res.GraphsCreated++
		res.NodesAdded += g.NumNodes()
		res.EdgesAdded += g.NumEdges()
		return nil
	case OpRegisterDoc:
		// The caller keeps its graphs: none is owned, so a later mutation in
		// the batch clones before it writes.
		sd.coll = append(graph.Collection(nil), m.Coll...)
		sd.repartition = true
		sd.indexNames()
		sd.owned = make(map[int]bool)
		return nil
	case OpDropGraph:
		ord, ok := sd.byName[m.Graph]
		if !ok {
			return fmt.Errorf("store: unknown graph %q in document %q", m.Graph, sd.name)
		}
		sd.coll = append(sd.coll[:ord:ord], sd.coll[ord+1:]...)
		sd.repartition = true
		// Ordinals shifted: rebuild the name and ownership maps. Changed
		// ordinals no longer matter — the commit repartitions from scratch.
		sd.indexNames()
		next := make(map[int]bool, len(sd.owned))
		for o := range sd.owned {
			switch {
			case o < ord:
				next[o] = true
			case o > ord:
				next[o-1] = true
			}
		}
		sd.owned = next
		res.GraphsDropped++
		return nil
	}
	// The remaining operations address a node or edge inside one graph.
	ord, ok := sd.byName[m.Graph]
	if !ok {
		return fmt.Errorf("store: unknown graph %q in document %q", m.Graph, sd.name)
	}
	switch m.Op {
	case OpInsertNode:
		if err := m.Attrs.Err(); err != nil {
			return err
		}
		g := sd.coll[ord]
		if _, dup := g.NodeByName(m.Name); dup {
			return fmt.Errorf("store: duplicate node name %q in graph %q", m.Name, m.Graph)
		}
		sd.workGraph(ord).AddNode(m.Name, m.Attrs)
		res.NodesAdded++
	case OpInsertEdge:
		if err := m.Attrs.Err(); err != nil {
			return err
		}
		g := sd.coll[ord]
		if _, dup := g.EdgeByName(m.Name); dup {
			return fmt.Errorf("store: duplicate edge name %q in graph %q", m.Name, m.Graph)
		}
		from, ok1 := g.NodeByName(m.From)
		to, ok2 := g.NodeByName(m.To)
		if !ok1 || !ok2 {
			return fmt.Errorf("store: edge %q references unknown node (%q, %q) in graph %q",
				m.Name, m.From, m.To, m.Graph)
		}
		sd.workGraph(ord).AddEdge(m.Name, from, to, m.Attrs)
		res.EdgesAdded++
	case OpDeleteNode:
		g := sd.coll[ord]
		id, ok := g.NodeByName(m.Name)
		if !ok {
			return fmt.Errorf("store: unknown node %q in graph %q", m.Name, m.Graph)
		}
		ng, removedEdges := rebuildWithout(g, id, graph.NoEdge)
		sd.coll[ord] = ng
		sd.owned[ord] = true
		sd.changed[ord] = true
		res.NodesDeleted++
		res.EdgesDeleted += removedEdges
	case OpDeleteEdge:
		g := sd.coll[ord]
		id, ok := g.EdgeByName(m.Name)
		if !ok {
			return fmt.Errorf("store: unknown edge %q in graph %q", m.Name, m.Graph)
		}
		ng, _ := rebuildWithout(g, graph.NoNode, id)
		sd.coll[ord] = ng
		sd.owned[ord] = true
		sd.changed[ord] = true
		res.EdgesDeleted++
	default:
		return fmt.Errorf("store: unknown operation %d", m.Op)
	}
	return nil
}

// rebuildWithout copies g minus one node (and its incident edges) and/or
// one edge. Graphs have no in-place deletion — IDs are dense and adjacency
// is positional — so deletion is reconstruction. Attribute tuples are
// shared with g: store graphs are immutable after publication, so
// structural copies never deep-copy attributes.
func rebuildWithout(g *graph.Graph, dropNode graph.NodeID, dropEdge graph.EdgeID) (*graph.Graph, int) {
	ng := graph.New(g.Name)
	ng.Directed = g.Directed
	ng.Attrs = g.Attrs
	remap := make([]graph.NodeID, g.NumNodes())
	for _, n := range g.Nodes() {
		if n.ID == dropNode {
			remap[n.ID] = graph.NoNode
			continue
		}
		remap[n.ID] = ng.AddNode(n.Name, n.Attrs)
	}
	removed := 0
	for _, e := range g.Edges() {
		if e.ID == dropEdge {
			continue
		}
		if remap[e.From] == graph.NoNode || remap[e.To] == graph.NoNode {
			removed++
			continue
		}
		ng.AddEdge(e.Name, remap[e.From], remap[e.To], e.Attrs)
	}
	return ng, removed
}

// commitApply publishes every staged document at version — the only place
// the store version moves: ApplyBatch commits at the next version, and
// recovery at the version a record was logged at. It copy-on-writes the
// document map, so published snapshots never change. Caller holds wmu.
func (s *DocStore) commitApply(st *stagedApply, version uint64) {
	docs := make(map[string]*Doc, len(st.docs))
	for name, sd := range st.docs {
		docs[name] = s.buildStagedDoc(sd)
	}
	obs.MutationsApplied.Add(int64(st.result.Mutations))
	obs.StoreMutations.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	next := make(map[string]*Doc, len(s.docs)+len(docs))
	for k, v := range s.docs {
		next[k] = v
	}
	s.version = version
	for name, d := range docs {
		d.version = version
		next[name] = d
	}
	s.docs = next
}

// buildStagedDoc materializes a staged document. The fast path keeps the
// base partition: node/edge deltas and appended graphs leave every
// unchanged ordinal in its shard (shardOf depends only on the ordinal),
// so only the touched shards are rebuilt — with their path
// indexes updated incrementally — and only the changed members' §4
// indexes are rebuilt (or dropped, when a member shrank below
// indexMinNodes); every other member keeps its own. Drops, registrations,
// fresh documents and shard-count changes repartition from scratch.
func (s *DocStore) buildStagedDoc(sd *stagedDoc) *Doc {
	full := sd.base == nil || sd.repartition
	var n int
	if !full {
		n = len(sd.base.shards)
		if n2 := clampShards(s.opts.Shards, len(sd.coll)); n2 != n {
			// Growth crossed the shard-count clamp: repartition.
			full = true
		}
	}
	if full {
		obs.StoreDocRebuilds.Inc()
		b := NewDocBuilder(sd.name, s.opts.Shards, s.opts.IndexMaxLen)
		for _, g := range sd.coll {
			b.Add(g)
		}
		return b.Build()
	}
	d := &Doc{Name: sd.name, coll: sd.coll}
	if sd.base.mix != nil {
		d.mix = make([]*match.Index, len(sd.coll))
		copy(d.mix, sd.base.mix)
	}
	byShard := make(map[int][]int)
	for ord := range sd.changed {
		si := shardOf(ord, n)
		byShard[si] = append(byShard[si], ord)
		d.indexMember(ord)
	}
	shards := make([]*Shard, n)
	copy(shards, sd.base.shards)
	for si, ords := range byShard {
		shards[si] = rebuildShard(sd.base.shards[si], sd.coll, ords, n, s.opts.IndexMaxLen)
		obs.StoreShardRebuilds.Inc()
	}
	d.shards = shards
	return d
}

// clampShards is the shard count DocBuilder.Build and incremental
// maintenance both partition into: at least one, never more shards than
// graphs (empty shards only cost fan-out overhead), and one empty shard
// for an empty collection so the doc always has a partition.
func clampShards(shards, collLen int) int {
	if shards < 1 || collLen == 0 {
		return 1
	}
	return min(shards, collLen)
}

// rebuildShard copies one shard of an n-shard partition with the changed
// canonical ordinals replaced (shardOf is round-robin, so ord sits at
// shard-local position ord/n) or appended (canonical ordinals past the
// base keep Ords ascending because appends grow the collection tail). The
// shard's path index is updated incrementally from the old one.
func rebuildShard(old *Shard, coll graph.Collection, changedOrds []int, n, ixLen int) *Shard {
	sort.Ints(changedOrds)
	ns := &Shard{
		Ords: append([]int32(nil), old.Ords...),
		Coll: append(graph.Collection(nil), old.Coll...),
	}
	changedLocal := make([]int32, 0, len(changedOrds))
	for _, ord := range changedOrds {
		if i := ord / n; i < len(old.Ords) {
			ns.Coll[i] = coll[ord]
			changedLocal = append(changedLocal, int32(i))
		} else {
			ns.Ords = append(ns.Ords, int32(ord))
			ns.Coll = append(ns.Coll, coll[ord])
			changedLocal = append(changedLocal, int32(len(ns.Coll)-1))
		}
	}
	if ixLen > 0 {
		if old.Ix != nil {
			ns.Ix = old.Ix.Update(ns.Coll, changedLocal)
		} else {
			ns.Ix = gindex.Build(ns.Coll, ixLen)
		}
	}
	return ns
}
