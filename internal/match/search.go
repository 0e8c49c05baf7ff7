package match

import (
	"context"
	"fmt"
	"slices"
	"time"

	"gqldb/internal/graph"
	"gqldb/internal/index"
	"gqldb/internal/pattern"
)

// searcher carries the state of one Find evaluation.
type searcher struct {
	p     *pattern.Pattern
	g     *graph.Graph
	ix    *Index
	opt   Options
	stats *Stats

	// ctx and its done channel bound the evaluation; ctxDone is nil for a
	// non-cancellable context, which keeps the per-step poll free.
	ctx     context.Context
	ctxDone <-chan struct{}
	// ctxErr is the cancellation error observed by a poll, surfaced by run.
	ctxErr error

	// phi[u] is the current feasible-mate list of pattern node u.
	phi [][]graph.NodeID
	// order[i] is the pattern node searched at depth i; pos is its inverse.
	order []graph.NodeID
	pos   []int
	// padj[u] lists pattern half-edges incident to u: the shared,
	// read-only Pattern.Halves table Compile built.
	padj [][]pattern.Half

	// Search state.
	assign  []graph.NodeID // pattern node -> data node (NoNode if free)
	edgeMap []graph.EdgeID // pattern edge -> witnessing data edge
	// used[v] marks data node v as currently assigned (injectivity);
	// indexed by data node so the per-candidate check is one load.
	used []bool
	out  []Mapping
	done bool

	// benv is the reusable binding environment for the residual predicate:
	// passing &benv avoids an interface-conversion allocation per complete
	// assignment (it views assign/edgeMap in place).
	benv bindEnv

	// AdjIterate support: per-pattern-node Φ-membership bitsets, per-depth
	// candidate buffers, and epoch-stamped dedup scratch (no per-call maps
	// in the inner loop).
	member    [][]uint64
	candBuf   [][]graph.NodeID
	seenStamp []int32
	seenEpoch int32

	// nodeArena/edgeArena amortize Mapping allocations: emit carves rows
	// off large blocks (one allocation per arenaBlock matches instead of
	// two per match). Rows are never reused, so emitted mappings stay
	// immutable after they leave the searcher.
	nodeArena []graph.NodeID
	edgeArena []graph.EdgeID
}

// arenaBlock is how many Mapping rows one arena allocation holds.
const arenaBlock = 64

// cancelled polls the context; the first observed cancellation flips done
// so the backtracking search unwinds immediately, and ctxErr carries the
// cause out through run.
func (s *searcher) cancelled() bool {
	if s.ctxDone == nil {
		return false
	}
	s.stats.CancelChecks++
	select {
	case <-s.ctxDone:
		if s.ctxErr == nil {
			s.ctxErr = s.ctx.Err()
		}
		s.done = true
		return true
	default:
		return false
	}
}

// run plans and searches one member. The phase timers read the clock only
// under Options.CollectStats; the candidate counts are always kept, since
// the selection span reads them.
func (s *searcher) run() error {
	n := s.p.Size()
	timed := s.opt.CollectStats
	var start time.Time

	var key PlanKey
	cached := false
	if s.opt.Plans != nil {
		key = planKeyFor(s.p, s.g, s.ix, s.opt)
		if pl, ok := s.opt.Plans.Get(s.opt.PlanEpoch, key); ok {
			s.adoptPlan(pl)
			cached = true
		}
	}
	if !cached {
		// One backing array for the three candidate-count vectors.
		counts := make([]int, 3*n)
		s.stats.CandBaseline = counts[:n:n]
		s.stats.CandLocal = counts[n : 2*n : 2*n]
		s.stats.CandRefined = counts[2*n:]

		if timed {
			start = time.Now()
		}
		if err := s.retrieve(); err != nil {
			return err
		}
		if timed {
			s.stats.RetrieveTime = time.Since(start)
		}
		if s.ctxErr != nil {
			return s.ctxErr
		}

		if s.opt.Refine {
			if timed {
				start = time.Now()
			}
			s.refine()
			if timed {
				s.stats.RefineTime = time.Since(start)
			}
			if s.ctxErr != nil {
				return s.ctxErr
			}
		}
		for u := range s.phi {
			s.stats.CandRefined[u] = len(s.phi[u])
		}

		if timed {
			start = time.Now()
		}
		s.plan()
		if timed {
			s.stats.OrderTime = time.Since(start)
		}
		// The searcher never writes s.order after planning, so the stats
		// share it; the cache snapshot takes its own copy.
		s.stats.Order = s.order

		if s.opt.Plans != nil {
			s.opt.Plans.Put(s.opt.PlanEpoch, key, s.planSnapshot())
		}
	}

	if timed {
		start = time.Now()
	}
	s.search()
	if !s.emitsCanonical() {
		slices.SortFunc(s.out, func(a, b Mapping) int { return slices.Compare(a.Nodes, b.Nodes) })
	}
	if timed {
		s.stats.SearchTime = time.Since(start)
	}
	s.stats.NumMatches = len(s.out)
	return s.ctxErr
}

// emitsCanonical reports whether the search already emits mappings in the
// answer order FindContext defines: declaration search order, candidates
// drawn straight from Φ. Every Φ list is ascending by construction
// (retrieval scans ordinals or a label index's ascending posting list, and
// pruning and refinement only filter), so the depth-first enumeration is
// then lexicographic in Mapping.Nodes.
func (s *searcher) emitsCanonical() bool {
	if s.opt.AdjIterate {
		return false
	}
	for i, u := range s.order {
		if int(u) != i {
			return false
		}
	}
	return true
}

// adoptPlan installs a shared cached plan. The feasible-mate lists are
// aliased — the search phase only reads them — while the order and the
// statistics slices are copied out, since Stats escapes to the caller.
func (s *searcher) adoptPlan(pl *Plan) {
	s.phi = pl.Phi
	s.order = append([]graph.NodeID(nil), pl.Order...)
	s.finishPlan()
	s.stats.PlanCacheHit = true
	s.stats.EstCost = pl.EstCost
	s.stats.Order = s.order
	s.stats.CandBaseline, s.stats.CandLocal, s.stats.CandRefined = copyCounts(pl.CandBaseline, pl.CandLocal, pl.CandRefined)
}

// planSnapshot captures the planning output for the cache. phi is stored
// as-is: the searcher never writes through the lists after planning
// (retrieval and refinement always build fresh backing arrays), so the
// cached plan and the search that produced it can share them.
func (s *searcher) planSnapshot() *Plan {
	pl := &Plan{
		Phi:     s.phi,
		Order:   append([]graph.NodeID(nil), s.order...),
		EstCost: s.stats.EstCost,
	}
	pl.CandBaseline, pl.CandLocal, pl.CandRefined = copyCounts(s.stats.CandBaseline, s.stats.CandLocal, s.stats.CandRefined)
	return pl
}

// copyCounts copies the three per-pattern-node candidate-count vectors of
// Definition 4.9 into one backing array (one allocation instead of three).
func copyCounts(base, local, refined []int) ([]int, []int, []int) {
	n := len(base)
	c := make([]int, 0, 3*n)
	c = append(append(append(c, base...), local...), refined...)
	return c[:n:n], c[n : 2*n : 2*n], c[2*n:]
}

// retrieve fills phi with the feasible mates of every pattern node
// (Definition 4.8), using the label index where a constant label constraint
// exists and applying the §4.2 local pruning.
func (s *searcher) retrieve() error {
	n := s.p.Size()
	s.phi = make([][]graph.NodeID, n)

	var pprof [][]int32
	var psubs []*index.NbrSub
	if s.opt.Prune != PruneNone && s.ix != nil && s.ix.Nbr != nil {
		pprof, psubs = patternNeighborhoods(s.p, s.ix.Labels.In, s.ix.Nbr.Radius, s.opt.Prune == PruneSubgraph)
	}

	for u := 0; u < n; u++ {
		if s.cancelled() {
			return nil
		}
		uid := graph.NodeID(u)
		// The label index narrows the scan when u has a constant label (a
		// label the graph lacks gives no candidate); otherwise every data
		// node is a candidate, visited by ordinal without materializing the
		// list.
		var cands []graph.NodeID
		scan := true
		if s.ix != nil {
			if label, ok := s.p.ConstLabel(uid); ok {
				cands, scan = s.ix.Labels.Lookup(label), false
			}
		}
		size := len(cands)
		if scan {
			size = s.g.NumNodes()
		}
		list := make([]graph.NodeID, 0, size)
		for i := 0; i < size; i++ {
			v := graph.NodeID(i)
			if !scan {
				v = cands[i]
			}
			ok, err := s.p.NodeMatches(uid, s.g.Node(v).Attrs)
			if err != nil {
				return fmt.Errorf("match: node predicate on %s: %w", s.p.Motif.Node(uid).Name, err)
			}
			if ok {
				list = append(list, v)
			}
		}
		s.stats.CandBaseline[u] = len(list)

		// The two local pruning methods are alternatives (§4.2): profiles
		// are the light-weight stand-in for the exact neighborhood
		// subgraph test, so the subgraph path must not piggy-back on the
		// profile check — the paper's Figure 4.21(a) measures their costs
		// separately.
		switch {
		case pprof != nil && s.opt.Prune == PruneProfile:
			pruned := list[:0:0]
			for _, v := range list {
				if index.ProfileContains(s.ix.Nbr.Profiles[v], pprof[u]) {
					pruned = append(pruned, v)
				}
			}
			list = pruned
		case pprof != nil && s.opt.Prune == PruneSubgraph:
			pruned := list[:0:0]
			for _, v := range list {
				switch {
				case psubs[u] != nil && s.ix.Nbr.Subs != nil:
					if index.SubIsomorphic(psubs[u], s.ix.Nbr.Subs[v]) {
						pruned = append(pruned, v)
					}
				case index.ProfileContains(s.ix.Nbr.Profiles[v], pprof[u]):
					// No exact pattern neighborhood available (some node
					// lacks a constant label): fall back to profiles.
					pruned = append(pruned, v)
				}
			}
			list = pruned
		}
		s.stats.CandLocal[u] = len(list)
		s.phi[u] = list
	}
	return nil
}

// patternNeighborhoods derives neighborhood profiles (and, optionally,
// subgraphs) for the pattern's motif using constant-label constraints. A
// motif node without a constant label contributes nothing to profiles; a
// neighborhood containing such a node gets no subgraph (the exact test
// needs every member labelled). Labels are only looked up in the data
// index's interner, never added — the index is shared by concurrent
// selections — so a label the data graph lacks gets an ID no data node
// carries, and every pattern node whose neighborhood holds it keeps no
// feasible mate.
func patternNeighborhoods(p *pattern.Pattern, in *index.Interner, radius int, withSubs bool) ([][]int32, []*index.NbrSub) {
	const unlabelled = -1
	absent := int32(in.Len())
	m := p.Motif
	labels := make([]int32, m.NumNodes())
	allLabelled := true
	for _, nd := range m.Nodes() {
		l, ok := p.ConstLabel(nd.ID)
		if !ok {
			allLabelled = false
			labels[nd.ID] = unlabelled
			continue
		}
		id, known := in.Lookup(l)
		if !known {
			id = absent
		}
		labels[nd.ID] = id
	}
	full := index.BuildNeighborhoods(m, labels, radius, withSubs && allLabelled)
	profiles := full.Profiles
	if !allLabelled {
		// Profiles are sorted and real IDs are non-negative, so the
		// unlabelled entries lead: drop them.
		for u, prof := range profiles {
			i, _ := slices.BinarySearch(prof, 0)
			profiles[u] = prof[i:]
		}
	}
	var subs []*index.NbrSub
	if withSubs && allLabelled {
		subs = full.Subs
	} else {
		subs = make([]*index.NbrSub, m.NumNodes())
	}
	return profiles, subs
}

// plan chooses the search order per Options.Order and fills s.order/s.pos,
// then precomputes the pattern adjacency used by Check.
func (s *searcher) plan() {
	n := s.p.Size()
	switch {
	case n == 0:
		s.order = nil
	case s.opt.Order == OrderGreedy:
		s.order, s.stats.EstCost = s.greedyOrder()
	case s.opt.Order == OrderDP && n <= 20:
		s.order, s.stats.EstCost = s.dpOrder()
	default:
		s.order = make([]graph.NodeID, n)
		for i := range s.order {
			s.order[i] = graph.NodeID(i)
		}
	}
	s.finishPlan()
}

// finishPlan derives the search-phase structures from s.order: the inverse
// position map and the pattern adjacency used by Check. Shared between the
// planner and cached-plan adoption.
func (s *searcher) finishPlan() {
	n := s.p.Size()
	s.pos = make([]int, n)
	for i, u := range s.order {
		s.pos[u] = i
	}
	s.padj = s.p.Halves()
}

// search runs the depth-first enumeration of Algorithm 4.1.
func (s *searcher) search() {
	n := s.p.Size()
	s.assign = make([]graph.NodeID, n)
	for i := range s.assign {
		s.assign[i] = graph.NoNode
	}
	s.edgeMap = make([]graph.EdgeID, s.p.Motif.NumEdges())
	s.used = make([]bool, s.g.NumNodes())
	s.benv = bindEnv{p: s.p, g: s.g, nodes: s.assign, edges: s.edgeMap}
	if s.opt.AdjIterate {
		s.member = make([][]uint64, n)
		s.candBuf = make([][]graph.NodeID, n)
		s.seenStamp = make([]int32, s.g.NumNodes())
		for i := range s.seenStamp {
			s.seenStamp[i] = -1
		}
	}
	if n == 0 {
		// An empty pattern matches any graph once, subject to the global
		// predicate (which can only reference graph attributes).
		if ok, _ := s.globalHolds(); ok {
			s.out = append(s.out, Mapping{})
		}
		return
	}
	s.rec(0)
}

// candidates selects the candidate stream for search depth i: the feasible
// mates Φ(u) (Algorithm 4.1), or — with Options.AdjIterate — the data
// adjacency of an already-assigned pattern neighbor filtered by Φ(u)
// membership, whichever applies.
func (s *searcher) candidates(i int) []graph.NodeID {
	u := s.order[i]
	if !s.opt.AdjIterate {
		return s.phi[u]
	}
	for _, h := range s.padj[u] {
		if h.To == u {
			continue
		}
		w := s.assign[h.To]
		if w == graph.NoNode {
			continue
		}
		// Candidates must be adjacent to w with the right orientation:
		// pattern edge u->h.To needs data edge v->w (v in InAdj(w));
		// pattern edge h.To->u needs w->v (v in Adj(w)).
		var adj []graph.Half
		if s.g.Directed && h.Out {
			adj = s.g.InAdj(w)
		} else {
			adj = s.g.Adj(w)
		}
		mem := s.member[u]
		if mem == nil {
			mem = make([]uint64, (s.g.NumNodes()+63)/64)
			for _, x := range s.phi[u] {
				mem[x>>6] |= 1 << (uint(x) & 63)
			}
			s.member[u] = mem
		}
		out := s.candBuf[i][:0]
		s.seenEpoch++
		for _, h2 := range adj {
			v := h2.To
			if mem[v>>6]&(1<<(uint(v)&63)) != 0 && s.seenStamp[v] != s.seenEpoch {
				s.seenStamp[v] = s.seenEpoch
				out = append(out, v)
			}
		}
		s.candBuf[i] = out
		return out
	}
	return s.phi[u]
}

func (s *searcher) rec(i int) {
	u := s.order[i]
	for _, v := range s.candidates(i) {
		if s.done || s.cancelled() {
			return
		}
		if s.used[v] {
			continue
		}
		s.stats.SearchSteps++
		if !s.check(u, v) {
			continue
		}
		s.assign[u] = v
		s.used[v] = true
		if i+1 < len(s.order) {
			s.rec(i + 1)
		} else if ok, _ := s.globalHolds(); ok {
			s.emit()
		}
		s.used[v] = false
		s.assign[u] = graph.NoNode
		if s.done {
			return
		}
	}
}

// check is Algorithm 4.1's Check(ui, v): every pattern edge from u to an
// already-assigned node must be witnessed by a data edge between v and that
// node's mate, satisfying the edge predicate and (for directed motifs) the
// orientation. Witnesses are recorded in edgeMap.
func (s *searcher) check(u graph.NodeID, v graph.NodeID) bool {
	for _, h := range s.padj[u] {
		w := s.assign[h.To]
		if w == graph.NoNode {
			if h.To != u {
				continue
			}
			// Self-loop on the pattern node being placed: v must carry a
			// satisfying self-loop.
			w = v
		}
		var from, to graph.NodeID
		if h.Out {
			from, to = v, w
		} else {
			from, to = w, v
		}
		found := false
		for _, eid := range s.g.EdgesBetween(from, to) {
			de := s.g.Edge(eid)
			if s.g.Directed && (de.From != from || de.To != to) {
				continue
			}
			ok, err := s.p.EdgeMatches(h.Edge, de.Attrs)
			if err == nil && ok {
				s.edgeMap[h.Edge] = eid
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// emit records the current assignment as a mapping and applies the
// exhaustive/limit stopping rules. Mapping rows are carved off the arenas:
// one backing allocation per arenaBlock matches instead of two per match,
// and nil slices are preserved for empty node/edge sets.
func (s *searcher) emit() {
	var nodes []graph.NodeID
	if n := len(s.assign); n > 0 {
		if len(s.nodeArena) < n {
			s.nodeArena = make([]graph.NodeID, n*arenaBlock)
		}
		nodes = s.nodeArena[:n:n]
		s.nodeArena = s.nodeArena[n:]
		copy(nodes, s.assign)
	}
	var edges []graph.EdgeID
	if n := len(s.edgeMap); n > 0 {
		if len(s.edgeArena) < n {
			s.edgeArena = make([]graph.EdgeID, n*arenaBlock)
		}
		edges = s.edgeArena[:n:n]
		s.edgeArena = s.edgeArena[n:]
		copy(edges, s.edgeMap)
	}
	s.out = append(s.out, Mapping{Nodes: nodes, Edges: edges})
	if !s.opt.Exhaustive {
		s.done = true
	}
	if s.opt.Limit > 0 && len(s.out) >= s.opt.Limit {
		s.done = true
		s.stats.Truncated = true
	}
}

// globalHolds evaluates the residual graph-wide predicate under the current
// (complete) assignment, through the compiled form when available. The
// pointer conversion of the reusable benv avoids an allocation per call.
func (s *searcher) globalHolds() (bool, error) {
	if s.p.Global == nil {
		return true, nil
	}
	return s.p.GlobalHolds(&s.benv)
}

// bindEnv resolves qualified names against a complete pattern binding:
// v1.attr reads the mate of motif node v1; e1.attr reads the witnessing
// data edge of motif edge e1; a bare name (or P.name) reads the data
// graph's own attributes.
type bindEnv struct {
	p     *pattern.Pattern
	g     *graph.Graph
	nodes []graph.NodeID
	edges []graph.EdgeID
}

// Resolve implements expr.Env. Pointer receiver: the searcher passes its
// one reusable bindEnv by address, which converts to the interface without
// allocating.
func (b *bindEnv) Resolve(parts []string) (graph.Value, error) {
	if len(parts) >= 2 && b.p.Name != "" && parts[0] == b.p.Name {
		parts = parts[1:]
	}
	if len(parts) == 1 {
		return b.g.Attrs.GetOr(parts[0]), nil
	}
	if len(parts) == 2 {
		if u, ok := b.p.Motif.NodeByName(parts[0]); ok {
			v := b.nodes[u]
			if v == graph.NoNode {
				return graph.Null, fmt.Errorf("match: node %s unbound", parts[0])
			}
			return b.g.Node(v).Attrs.GetOr(parts[1]), nil
		}
		if e, ok := b.p.Motif.EdgeByName(parts[0]); ok {
			return b.g.Edge(b.edges[e]).Attrs.GetOr(parts[1]), nil
		}
	}
	return graph.Null, fmt.Errorf("match: cannot resolve %v", parts)
}
