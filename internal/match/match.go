// Package match implements the access methods for the GraphQL selection
// operator over large graphs (§4): the basic graph pattern matching search
// (Algorithm 4.1), local pruning of feasible mates with neighborhood
// subgraphs and profiles (§4.2), joint reduction of the search space by
// pseudo subgraph isomorphism (Algorithm 4.2, §4.3), and search-order
// optimization with a graph-specific cost model (§4.4).
package match

import (
	"context"
	"fmt"
	"math"
	"time"

	"gqldb/internal/graph"
	"gqldb/internal/index"
	"gqldb/internal/pattern"
)

// LocalPrune selects the §4.2 feasible-mate pruning technique.
type LocalPrune uint8

// Local pruning modes.
const (
	// PruneNone retrieves feasible mates by node attributes only.
	PruneNone LocalPrune = iota
	// PruneProfile additionally requires the pattern node's neighborhood
	// profile to be contained in the data node's.
	PruneProfile
	// PruneSubgraph requires the pattern node's neighborhood subgraph to
	// be sub-isomorphic to the data node's (strongest, most expensive).
	PruneSubgraph
)

// OrderMode selects the §4.4 search-order planner.
type OrderMode uint8

// Search-order modes.
const (
	// OrderInput searches pattern nodes in declaration order.
	OrderInput OrderMode = iota
	// OrderGreedy picks, at each join, the leaf minimizing the estimated
	// join cost (the paper's planner).
	OrderGreedy
	// OrderDP enumerates all left-deep orders by dynamic programming;
	// exponential in pattern size, for ablation only.
	OrderDP
)

// Options configures one selection evaluation.
type Options struct {
	// Exhaustive returns all mappings; otherwise the first (the language's
	// "exhaustive" keyword, §3.3).
	Exhaustive bool
	// Limit truncates the answer set when positive; the paper's harness
	// stops queries at 1000 hits.
	Limit int
	// Prune is the local pruning technique for feasible-mate retrieval.
	Prune LocalPrune
	// Refine enables the global Algorithm 4.2 reduction.
	Refine bool
	// RefineLevel is the maximum refinement level l; 0 means the pattern
	// size (the paper's setting).
	RefineLevel int
	// Order selects the search-order planner.
	Order OrderMode
	// FreqGamma estimates reduction factors from label/edge frequencies
	// (the "more elaborate" estimator of §4.4).
	FreqGamma bool
	// AdjIterate iterates candidates for a pattern node from the data
	// adjacency of an already-matched pattern neighbor (intersected with
	// the feasible-mate set) instead of scanning Φ(u) — an extension
	// beyond Algorithm 4.1's literal "foreach v ∈ Φ(ui)" loop that pays
	// off when feasible-mate sets are much larger than data degrees.
	AdjIterate bool
	// CollectStats fills the per-phase instrumentation in Stats.
	CollectStats bool
	// Plans, when non-nil, caches the §4.4 planning output (feasible
	// mates, search order, cost estimates) across evaluations: a repeated
	// query over an unchanged graph skips retrieval, refinement and
	// ordering entirely. See PlanCache for the validity contract.
	Plans *PlanCache
	// PlanEpoch is the statistics-validity fence for plan-cache entries —
	// the store version of the snapshot the graph came from. It must move
	// forward whenever the underlying data changes; the exec layer wires
	// it to the snapshot version automatically.
	PlanEpoch uint64
}

// Optimized is the paper's recommended combination (§5.2): retrieval by
// profiles, refinement, and greedy-ordered search with frequency-based
// reduction factors.
func Optimized() Options {
	return Options{
		Exhaustive: true,
		Prune:      PruneProfile,
		Refine:     true,
		Order:      OrderGreedy,
		FreqGamma:  true,
	}
}

// Baseline is the unoptimized reference (§5.1): retrieval by node attributes
// and search in declaration order.
func Baseline() Options {
	return Options{Exhaustive: true}
}

// Mapping is one feasible mapping Φ: pattern nodes (and edges) to data
// nodes (and edges). Nodes[u] is the data node matched to pattern node u;
// Edges[e] is one data edge witnessing pattern edge e.
type Mapping struct {
	Nodes []graph.NodeID
	Edges []graph.EdgeID
}

// Stats instruments one selection evaluation; the §5 figures are computed
// from these counters.
type Stats struct {
	// CandBaseline[u] is |Φ0(u)| from attribute retrieval alone.
	CandBaseline []int
	// CandLocal[u] is |Φ(u)| after local pruning.
	CandLocal []int
	// CandRefined[u] is |Φ(u)| after Algorithm 4.2.
	CandRefined []int
	// Phase durations.
	RetrieveTime time.Duration
	RefineTime   time.Duration
	OrderTime    time.Duration
	SearchTime   time.Duration
	// SearchSteps counts candidate nodes visited by the backtracking
	// search (loop iterations of Search()).
	SearchSteps int64
	// NumMatches is the number of mappings reported.
	NumMatches int
	// Truncated records that Limit stopped the search early.
	Truncated bool
	// Order is the node visit order chosen by the planner.
	Order []graph.NodeID
	// EstCost is the planner's estimated cost of the chosen order.
	EstCost float64
	// GraphGateRejected reports that the member graph failed the pattern's
	// graph gate (Pattern.GraphHolds): a residual conjunct over graph
	// attributes alone is false or errors for it, so no binding can satisfy
	// the predicate and nothing else ran — no plan-cache lookup, retrieval
	// or search, and every other field is zero.
	GraphGateRejected bool
	// PlanCacheHit reports that the evaluation reused a cached plan
	// (Options.Plans) instead of retrieving, refining and ordering; the
	// corresponding phase times are zero.
	PlanCacheHit bool
	// CancelChecks counts context-cancellation polls performed by the
	// evaluation (one per backtracking step when a cancellable context is
	// supplied via FindContext).
	CancelChecks int64
	// Ops collects per-operator timing and fan-out records appended by the
	// bulk algebra layer (parallel selection, product, join, compose and
	// the exec pipeline); /explain and gqlshell EXPLAIN print them as the
	// per-operator table.
	Ops []OpStat
}

// OpStat is one bulk-operator execution record: which operator ran, how
// many work items it fanned out over, on how many workers, and its wall
// time.
type OpStat struct {
	Op      string
	Items   int
	Workers int
	Wall    time.Duration
}

// RecordOp appends one per-operator record. It is nil-safe so operators can
// be instrumented unconditionally, and must only be called from the
// goroutine coordinating the operator (never from pool workers).
func (s *Stats) RecordOp(op string, items, workers int, wall time.Duration) {
	if s == nil {
		return
	}
	s.Ops = append(s.Ops, OpStat{Op: op, Items: items, Workers: workers, Wall: wall})
}

// Summary renders the statistics in one human-readable block: the three
// search-space sizes (Definition 4.9) and the per-phase times.
func (s *Stats) Summary() string {
	return fmt.Sprintf(
		"space: baseline 10^%.1f -> local 10^%.1f -> refined 10^%.1f\n"+
			"phases: retrieve %v, refine %v, order %v, search %v (%d steps)\n"+
			"matches: %d (truncated=%v), order %v, est cost %.3g",
		Log10Space(s.CandBaseline), Log10Space(s.CandLocal), Log10Space(s.CandRefined),
		s.RetrieveTime, s.RefineTime, s.OrderTime, s.SearchTime, s.SearchSteps,
		s.NumMatches, s.Truncated, s.Order, s.EstCost)
}

// Log10Space returns log10 of the product of candidate-set sizes — the
// search-space size of Definition 4.9 — for the given per-node counts. An
// empty candidate set makes the space empty: -Inf is avoided by returning
// log10(0-sized space) as negative infinity substitute -400 (figures plot
// ratios, so any empty space dominates).
func Log10Space(cands []int) float64 {
	s := 0.0
	for _, c := range cands {
		if c == 0 {
			return -400
		}
		s += math.Log10(float64(c))
	}
	return s
}

// Index bundles the per-graph access structures built once per dataset:
// the B-tree label index with frequency statistics and (optionally) the
// radius-r neighborhood subgraphs and profiles.
type Index struct {
	G      *graph.Graph
	Labels *index.LabelIndex
	Nbr    *index.Neighborhoods
}

// BuildIndex constructs the access structures for g. Radius is the
// neighborhood radius (the paper uses 1); withSubgraphs materializes full
// neighborhood subgraphs in addition to profiles.
func BuildIndex(g *graph.Graph, radius int, withSubgraphs bool) *Index {
	ix := &Index{G: g, Labels: index.BuildLabelIndex(g)}
	if radius > 0 {
		ix.Nbr = index.BuildNeighborhoods(g, ix.Labels.NodeLabels(), radius, withSubgraphs)
	}
	return ix
}

// Find evaluates pattern p over g using the given options. ix may be nil,
// in which case feasible mates are retrieved by scanning (no label index,
// no local pruning structures). It returns the mappings and, when
// opt.CollectStats is set, filled statistics.
func Find(p *pattern.Pattern, g *graph.Graph, ix *Index, opt Options) ([]Mapping, *Stats, error) {
	return FindContext(context.Background(), p, g, ix, opt)
}

// FindContext is Find with cancellation and deadline support: the context
// is polled on every backtracking step of the Algorithm 4.1 search (and
// between the retrieval/refinement phases), so a cancelled selection
// returns ctx.Err() within one step — not only between graphs.
//
// Answer order is defined by the query, not by the plan: a member's
// mappings come back sorted lexicographically by Mapping.Nodes, pattern
// nodes in declaration order, so every combination of options returns the
// same rows in the same order. A plan that searches in declaration order
// without AdjIterate already enumerates in that order and skips the sort.
// Edges need no key: Algorithm 4.1's check takes the first satisfying
// witness in EdgesBetween for each placed pair, whichever end came first.
// With a Limit or first-match, the rows returned are the plan's first ones,
// sorted; under declaration order they are the baseline's prefix.
//
// The pattern's graph gate is checked first, once per call: a graph whose
// attributes fail it has no mappings, and the call returns before the
// plan-cache lookup, retrieval and search (Stats.GraphGateRejected). That
// is the answer the per-binding residual check would give, reached without
// enumerating a binding.
func FindContext(ctx context.Context, p *pattern.Pattern, g *graph.Graph, ix *Index, opt Options) ([]Mapping, *Stats, error) {
	if err := p.Compile(); err != nil {
		return nil, nil, err
	}
	if ok, err := p.GraphHolds(g.Attrs); !ok || err != nil {
		return nil, &Stats{GraphGateRejected: true}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &searcher{p: p, g: g, ix: ix, opt: opt, stats: &Stats{}, ctx: ctx, ctxDone: ctx.Done()}
	if err := s.run(); err != nil {
		return nil, nil, err
	}
	return s.out, s.stats, nil
}

// Exists reports whether p has at least one feasible mapping in g.
func Exists(p *pattern.Pattern, g *graph.Graph, ix *Index, opt Options) (bool, error) {
	return ExistsContext(context.Background(), p, g, ix, opt)
}

// ExistsContext is Exists with cancellation and deadline support.
func ExistsContext(ctx context.Context, p *pattern.Pattern, g *graph.Graph, ix *Index, opt Options) (bool, error) {
	opt.Exhaustive = false
	opt.Limit = 1
	ms, _, err := FindContext(ctx, p, g, ix, opt)
	return len(ms) > 0, err
}
