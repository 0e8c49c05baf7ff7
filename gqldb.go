// Package gqldb is a Go implementation of GraphQL — the graph query
// language and access methods of He & Singh, "Graphs-at-a-time: Query
// Language and Access Methods for Graph Databases" (SIGMOD 2008).
//
// Graphs are the basic unit of information: queries select matched graphs
// from collections via graph patterns (subgraph isomorphism plus attribute
// predicates) and compose new graphs from them via graph templates. The
// selection operator is served by graph-specific access methods: a B-tree
// label index, local pruning with neighborhood subgraphs and profiles,
// global search-space refinement by pseudo subgraph isomorphism, and
// cost-based search-order optimization.
//
// This facade re-exports the library's main entry points:
//
//   - data model: Graph, Tuple, Value, Collection (NewGraph, NewTuple, ...)
//   - patterns and matching: Pattern, Match/MatchOne, Options
//   - the graph algebra: SelectGraphs, Product, Join, ComposeMatches, Union,
//     Difference, Intersection (package internal/algebra)
//   - the query language: ParseQuery and Query for full FLWR programs
//
// The subsystem packages under internal/ carry the implementation:
// internal/match (Algorithms 4.1 and 4.2), internal/index (neighborhood
// subgraphs, profiles, label index), internal/sqlbase (the SQL-based
// comparator), internal/datalog (the §3.5 translation; internal/difftest
// holds the engines to one answer set), internal/figures (the §5 harness).
package gqldb

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"gqldb/internal/algebra"
	"gqldb/internal/ast"
	"gqldb/internal/exec"
	"gqldb/internal/expr"
	"gqldb/internal/gindex"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/obs"
	"gqldb/internal/parser"
	"gqldb/internal/pattern"
	"gqldb/internal/server"
	"gqldb/internal/shardsrv"
	"gqldb/internal/store"
)

// Core data-model types.
type (
	// Graph is an attributed multigraph (§3.1).
	Graph = graph.Graph
	// Tuple is a tagged attribute list annotating nodes, edges and graphs.
	Tuple = graph.Tuple
	// Value is a dynamically typed attribute value.
	Value = graph.Value
	// Collection is an ordered collection of graphs — the operand of
	// every algebra operator.
	Collection = graph.Collection
	// NodeID identifies a node within one graph.
	NodeID = graph.NodeID
	// EdgeID identifies an edge within one graph.
	EdgeID = graph.EdgeID
)

// Pattern and matching types.
type (
	// Pattern is a graph pattern P = (motif, predicate) (§3.2).
	Pattern = pattern.Pattern
	// Options configures selection evaluation (§4).
	Options = match.Options
	// Mapping is one feasible mapping of pattern elements to graph
	// elements.
	Mapping = match.Mapping
	// MatchStats instruments a selection evaluation (search-space sizes
	// and per-phase times — the quantities plotted in §5).
	MatchStats = match.Stats
	// Index bundles the per-graph access structures (label index,
	// neighborhood subgraphs, profiles).
	Index = match.Index
	// MatchedGraph is the triple ⟨Φ, P, G⟩ produced by selection.
	MatchedGraph = algebra.MatchedGraph
	// Template constructs new graphs from matched graphs (composition).
	Template = algebra.Template
	// TMember is one template body declaration.
	TMember = algebra.TMember
	// Template members: embed an operand graph, declare nodes and edges
	// (with computed attributes), unify nodes.
	TGraph = algebra.TGraph
	TNode  = algebra.TNode
	TEdge  = algebra.TEdge
	TUnify = algebra.TUnify
	// AttrTemplate computes one attribute of a template element.
	AttrTemplate = algebra.AttrTemplate
	// Operand is an actual template parameter (matched or plain graph).
	Operand = algebra.Operand
	// Expr is a predicate expression.
	Expr = expr.Expr
	// Store maps document names to collections — the plain shape behind
	// QueryOptions.Docs and NewEngine, which wrap it into an unsharded
	// DocStore. For sharding, versioned registration or result caching,
	// build a DocStore and use NewEngineOver.
	Store = map[string]graph.Collection
	// DocStore is the versioned, sharded in-process document store: every
	// RegisterDoc and mutation batch bumps a monotonic version, queries read
	// immutable snapshots, and collections are dealt round-robin into shards
	// with optional per-shard path indexes (see StoreOptions).
	DocStore = store.DocStore
	// StoreOptions configures a DocStore: shard count per document and the
	// per-shard path-feature index length (0 disables indexing).
	StoreOptions = store.Options
	// StoreSnapshot is one immutable view of a DocStore at a single
	// version; in-flight queries each pin one.
	StoreSnapshot = store.Snapshot
	// ResultCache is the LRU whole-program result cache keyed on
	// (canonical program text, documents read, store version), invalidated
	// by version bump; set it on Engine.Cache and query via
	// Engine.RunQuery.
	ResultCache = store.Cache
	// CacheStats is a ResultCache counter snapshot (hits, misses,
	// evictions, invalidations, entries).
	CacheStats = store.CacheStats
	// PlanCache is the LRU search-plan cache keyed on (pattern shape,
	// graph, planning options), invalidated by store-version bump; set it
	// on Engine.Plans so repeated patterns over unchanged documents skip
	// retrieval, refinement and search-order planning.
	PlanCache = match.PlanCache
	// PlanCacheStats is a PlanCache counter snapshot (hits, misses,
	// evictions, invalidations, entries).
	PlanCacheStats = match.PlanCacheStats
	// ShardSelector evaluates selection over one store shard — the seam a
	// multi-process deployment implements with an RPC shard client.
	ShardSelector = store.ShardSelector
	// RemoteSelector is the multi-process ShardSelector: it fans shard
	// requests to gqlshard endpoints over the store wire protocol, with
	// per-attempt timeouts, bounded retry rotation across replicas,
	// optional hedging, a stale-mirror resync handshake and explicit
	// partial-failure degradation. Set it on Engine.Selector to turn an
	// embedded engine into a cluster frontend.
	RemoteSelector = store.RemoteSelector
	// ShardHealth is one shard endpoint's last-probe state, surfaced on
	// the server's /healthz.
	ShardHealth = store.ShardHealth
	// ShardError is the per-shard failure report of a remote selection
	// (errors.As target): endpoint, document, shard ordinal, attempts.
	ShardError = store.ShardError
	// ShardServer is the shard-server side of the multi-process read path
	// (the cmd/gqlshard handler): it mirrors documents, answers per-shard
	// selection jobs over the wire protocol and converges via /shard/sync.
	ShardServer = shardsrv.Server
	// ShardServerConfig configures a ShardServer (partition width, index
	// length, body cap, worker cap).
	ShardServerConfig = shardsrv.Config
	// QueryParseError marks an Engine.RunQuery failure as a syntax error in
	// the program source (errors.As target).
	QueryParseError = exec.ParseError
	// QueryResult is the outcome of running a FLWR program.
	QueryResult = exec.Result
	// Engine evaluates parsed programs against a store; set Workers for
	// parallel for-clause evaluation.
	Engine = exec.Engine
	// OpStat is one bulk-operator execution record (operator name, item
	// count, worker count, wall time) collected in MatchStats.Ops.
	OpStat = match.OpStat
	// GraphBuilder is the batch graph loader: mutators accumulate every
	// construction error with its operation position, and Build returns the
	// graph or the joined errors — the API for ingesting untrusted input.
	GraphBuilder = graph.Builder
	// Span is one node of a query-evaluation trace tree: a named phase or
	// operator with wall time, annotations, counters and children. Returned
	// in QueryResult.Trace when tracing is enabled.
	Span = obs.Span
	// SpanAttr is one key/value annotation on a trace span.
	SpanAttr = obs.Attr
	// SlowQueryRecord is handed to Engine.SlowQueryLog when a query crosses
	// Engine.SlowQuery.
	SlowQueryRecord = obs.SlowQueryRecord
	// RequestOptions are per-request overrides for a shared Engine; see
	// Engine.Request.
	RequestOptions = exec.RequestOptions
	// ServerConfig configures the HTTP query frontend (admission limit,
	// body cap, per-request deadlines, access logging).
	ServerConfig = server.Config
	// Server is the HTTP query frontend over an Engine: POST /query,
	// POST /explain, GET /metrics, /debug/vars and /healthz, with
	// admission control and graceful drain. See cmd/gqlserver for the
	// production binary.
	Server = server.Server
	// AccessRecord is one structured access-log entry emitted by the
	// server's request middleware.
	AccessRecord = server.AccessRecord
)

// Graph constructors.
var (
	// NewGraph returns an empty undirected graph.
	NewGraph = graph.New
	// NewDirectedGraph returns an empty directed graph.
	NewDirectedGraph = graph.NewDirected
	// NewTuple returns an empty tagged tuple.
	NewTuple = graph.NewTuple
	// TupleOf builds a tuple from alternating name/value pairs.
	TupleOf = graph.TupleOf
	// Int, Float, String, Bool construct attribute values.
	Int    = graph.Int
	Float  = graph.Float
	String = graph.String
	Bool   = graph.Bool
	// NewGraphBuilder returns an error-accumulating batch loader.
	NewGraphBuilder = graph.NewBuilder
)

// Pattern constructors.
var (
	// NewPattern returns an empty pattern with an undirected motif.
	NewPattern = pattern.New
	// NewDirectedPattern returns an empty pattern with a directed motif.
	NewDirectedPattern = pattern.NewDirected
)

// Template operand constructors.
var (
	// MatchedOperand binds a matched graph as a template parameter.
	MatchedOperand = algebra.MatchedOperand
	// GraphOperand binds a plain graph as a template parameter.
	GraphOperand = algebra.GraphOperand
)

// Matching configurations.
var (
	// Optimized is the paper's recommended §5 combination: retrieval by
	// profiles, joint refinement, greedy-ordered search.
	Optimized = match.Optimized
	// Baseline is attribute retrieval plus unordered search.
	Baseline = match.Baseline
	// BuildIndex precomputes the access structures for a data graph.
	BuildIndex = match.BuildIndex
	// Log10Space returns log10 of a candidate-space size (Definition 4.9).
	Log10Space = match.Log10Space
)

// Local pruning modes (§4.2).
const (
	PruneNone     = match.PruneNone
	PruneProfile  = match.PruneProfile
	PruneSubgraph = match.PruneSubgraph
)

// Search-order planners (§4.4).
const (
	OrderInput  = match.OrderInput
	OrderGreedy = match.OrderGreedy
	OrderDP     = match.OrderDP
)

// Match finds mappings of p in g. ix may be nil (no index acceleration).
func Match(p *Pattern, g *Graph, ix *Index, opt Options) ([]Mapping, *MatchStats, error) {
	return match.Find(p, g, ix, opt)
}

// MatchContext is Match with cancellation and deadline support: the context
// is polled on every backtracking step of the search, so cancelling returns
// ctx.Err() within one step.
func MatchContext(ctx context.Context, p *Pattern, g *Graph, ix *Index, opt Options) ([]Mapping, *MatchStats, error) {
	return match.FindContext(ctx, p, g, ix, opt)
}

// MatchOne reports whether p has at least one mapping in g.
func MatchOne(p *Pattern, g *Graph, ix *Index, opt Options) (bool, error) {
	return match.Exists(p, g, ix, opt)
}

// MatchOneContext is MatchOne with cancellation and deadline support.
func MatchOneContext(ctx context.Context, p *Pattern, g *Graph, ix *Index, opt Options) (bool, error) {
	return match.ExistsContext(ctx, p, g, ix, opt)
}

// SelectOptions configures SelectGraphs; the zero value is a serial,
// unindexed, uninstrumented selection with default matching options.
type SelectOptions struct {
	// Match configures the §4 access methods (pruning, refinement, search
	// order, exhaustiveness).
	Match Options
	// Workers bounds the worker pool (<= 0 means GOMAXPROCS, 1 is serial).
	// Output is identical at every setting, in the same order.
	Workers int
	// Index optionally supplies per-graph access structures.
	Index func(*Graph) *Index
	// Stats, when non-nil, receives a per-operator timing/fan-out record.
	Stats *MatchStats
}

// SelectGraphs evaluates σ_P(C) — all bindings of p across the collection —
// under a context on a bounded worker pool. This is the single selection
// entry point.
func SelectGraphs(ctx context.Context, p *Pattern, c Collection, opts SelectOptions) ([]*MatchedGraph, error) {
	return algebra.SelectionContext(ctx, p, c, opts.Match, opts.Index, opts.Workers, opts.Stats)
}

// Product computes the Cartesian product C × D (§3.3) on a bounded worker
// pool with cancellation; output order matches the serial nested-loop order.
func Product(ctx context.Context, c, d Collection, workers int, stats *MatchStats) (Collection, error) {
	return algebra.CartesianProductContext(ctx, c, d, workers, stats)
}

// Join computes the valued join C ⋈_pred D = σ_pred(C × D) (§3.3) on a
// bounded worker pool with cancellation; a nil predicate degenerates to the
// product.
func Join(ctx context.Context, c, d Collection, pred Expr, workers int, stats *MatchStats) (Collection, error) {
	return algebra.ValuedJoinContext(ctx, c, d, pred, workers, stats)
}

// ComposeMatches instantiates template t (parameter name param) for every
// matched graph (§3.3's composition ω_T) on a bounded worker pool with
// cancellation, preserving collection order.
func ComposeMatches(ctx context.Context, t *Template, param string, ms []*MatchedGraph, workers int, stats *MatchStats) (Collection, error) {
	return algebra.ComposeContext(ctx, t, param, ms, workers, stats)
}

// StructuralJoin instantiates the two-parameter template for every pair of
// matched graphs on a bounded worker pool with cancellation, in serial pair
// order.
func StructuralJoin(ctx context.Context, t *Template, p1, p2 string, c, d []*MatchedGraph, workers int, stats *MatchStats) (Collection, error) {
	return algebra.StructuralJoinContext(ctx, t, p1, p2, c, d, workers, stats)
}

// Set operators over collections (set semantics up to graph signature).
var (
	// Union computes C ∪ D.
	Union = algebra.Union
	// Difference computes C − D.
	Difference = algebra.Difference
	// Intersection computes C ∩ D.
	Intersection = algebra.Intersection
)

// Binary collection serialization (the compact on-disk format).
var (
	// WriteBinary serializes a collection of attributed graphs.
	WriteBinary = graph.WriteBinary
	// ReadBinary deserializes a collection written by WriteBinary.
	ReadBinary = graph.ReadBinary
)

// CollectionIndex is a path-feature index over a collection of small
// graphs: Candidates filters, Select runs filter-then-verify (§4's first
// database category).
type CollectionIndex = gindex.Index

// BuildCollectionIndex enumerates path features up to maxLen edges
// (3 is a good default) for every graph in the collection.
func BuildCollectionIndex(c Collection, maxLen int) *CollectionIndex {
	return gindex.Build(c, maxLen)
}

// ParseExpr parses a predicate expression in the language's where-clause
// syntax, e.g. `v1.name = "A" & v2.year > 2000`.
func ParseExpr(src string) (Expr, error) { return parser.ParseExpr(src) }

// ParseQuery parses a GraphQL program (Appendix 4.A syntax).
func ParseQuery(src string) (*ast.Program, error) { return parser.Parse(src) }

// Streaming result pipeline types (see QueryStream and Engine.StreamQuery).
type (
	// ResultSink receives result graphs one at a time as the pipeline
	// produces them; returning ErrStopStream stops the query early as a
	// truncated success, any other error aborts it.
	ResultSink = exec.ResultSink
	// CollectSink is the trivial buffering sink: Emit appends to Graphs.
	CollectSink = exec.CollectSink
	// StreamResult summarizes a streamed query (rows emitted, rows
	// skipped, truncation, variables, stats, trace).
	StreamResult = exec.StreamResult
	// StreamOptions paginates a streamed query (Skip/Take) and optionally
	// pins it to a store snapshot.
	StreamOptions = exec.StreamOptions
	// DocStats is a per-document inventory (graph/shard/node/edge counts
	// and attribute-name occurrence), as served by GET /v2/schema.
	DocStats = store.DocStats
)

// ErrStopStream, returned from ResultSink.Emit, stops the stream early:
// the query finishes as a truncated success rather than an error.
var ErrStopStream = exec.ErrStopStream

// AllRows as a Take value streams the whole result set.
const AllRows = exec.AllRows

// QueryOptions configures Query and QueryStream. Exactly one of Engine,
// Store or Docs selects the execution target (checked in that order; a nil
// Engine and Store fall back to Docs, and the zero value runs against an
// empty document map).
type QueryOptions struct {
	// Docs maps document names to collections; it is wrapped into an
	// unsharded DocStore (the simple path).
	Docs Store
	// Store is a versioned document store — the sharded/indexed path.
	Store *DocStore
	// Engine executes the query on an existing engine via Engine.Request,
	// inheriting its cache, options and slow-query configuration.
	Engine *Engine
	// Workers configures for-clause fan-out (0 or 1 serial, negative
	// GOMAXPROCS). With Engine set, nonzero overrides the engine default.
	Workers int
	// Trace enables span collection even without a trace on ctx.
	Trace bool
	// Skip drops the first rows of every return clause before emission
	// (QueryStream only); skipped rows are never instantiated.
	Skip int
	// Take caps emitted rows (QueryStream only); <= 0 streams all rows.
	Take int
}

// engine resolves the options to a request-scoped engine.
func (o QueryOptions) engine() *Engine {
	if o.Engine != nil {
		return o.Engine.Request(RequestOptions{Workers: o.Workers, Trace: o.Trace})
	}
	var e *Engine
	if o.Store != nil {
		e = exec.NewOver(o.Store)
	} else {
		e = NewEngine(o.Docs)
	}
	e.Workers = o.Workers
	e.Trace = o.Trace
	return e
}

// Query parses and executes a GraphQL program, returning the buffered
// result. This is the single buffered entry point. Cancellation is honored down to individual
// backtracking steps of each selection, and when ctx carries a trace
// (StartTrace) — or Trace is set — every phase records spans and the tree
// is returned in QueryResult.Trace. Parse failures return a *QueryParseError.
func Query(ctx context.Context, src string, opts QueryOptions) (*QueryResult, error) {
	return opts.engine().RunQuery(ctx, src)
}

// QueryStream parses and executes a GraphQL program, pushing result graphs
// into sink as the pipeline produces them instead of buffering: constant
// memory in the result cardinality, with Skip/Take pagination applied
// before instantiation.
func QueryStream(ctx context.Context, src string, sink ResultSink, opts QueryOptions) (*StreamResult, error) {
	take := opts.Take
	if take <= 0 {
		take = AllRows
	}
	return opts.engine().StreamQuery(ctx, src, sink, StreamOptions{Skip: opts.Skip, Take: take})
}

// StartTrace enables tracing for everything evaluated under the returned
// context: a started root span is installed and returned. End it after the
// query and read the tree with Span.Render (or via QueryResult.Trace).
func StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	root := obs.NewTrace(name)
	return obs.NewContext(ctx, root), root
}

// TraceFromContext returns the context's current trace span, or nil when
// tracing is disabled. All Span methods are nil-safe.
func TraceFromContext(ctx context.Context) *Span { return obs.FromContext(ctx) }

// WriteMetrics dumps the process-wide query metrics (counters, latency
// histograms and per-worker pool utilization, also published via expvar
// under "gqldb") in the Prometheus text exposition format.
func WriteMetrics(w io.Writer) error { return obs.WritePrometheus(w) }

// MetricsHandler returns an http.Handler serving WriteMetrics — mount it
// on /metrics to expose the process to a Prometheus scraper.
func MetricsHandler() http.Handler { return obs.Handler() }

// NewServer returns the HTTP query frontend over cfg.Engine. The Server
// is itself an http.Handler serving POST /query, POST /explain,
// GET /metrics, GET /debug/vars and GET /healthz; pair it with
// Server.Drain for signal-driven graceful shutdown (see cmd/gqlserver).
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// NewRemoteSelector returns a multi-process shard selector over the given
// gqlshard base URLs; configure with its Set* knobs before serving and set
// it on Engine.Selector.
func NewRemoteSelector(endpoints []string) *RemoteSelector {
	return store.NewRemoteSelector(endpoints)
}

// NewShardServer returns a shard server (the cmd/gqlshard handler) with an
// empty document mirror.
func NewShardServer(cfg ShardServerConfig) *ShardServer { return shardsrv.New(cfg) }

// MetricsSnapshot returns the current value of every process-wide metric:
// counters as int64, histograms as {count, sum_seconds} maps.
func MetricsSnapshot() map[string]any { return obs.Snapshot() }

// NewEngine returns a query engine over the document map with default
// options; set Workers or Opts before querying. The map is wrapped into an
// unsharded DocStore at construction, which indexes its large member graphs
// itself; later changes to the map are not observed.
func NewEngine(st Store) *Engine { return exec.NewOver(store.FromMap(st)) }

// NewEngineOver returns a query engine reading through a versioned store —
// the constructor for sharded, indexed or result-cached deployments:
//
//	docs := gqldb.NewDocStore(gqldb.StoreOptions{Shards: 8, IndexMaxLen: 3})
//	docs.RegisterDoc("DBLP", papers)
//	eng := gqldb.NewEngineOver(docs)
//	eng.Cache = gqldb.NewResultCache(256)
//	res, err := eng.RunQuery(ctx, query)
func NewEngineOver(docs *DocStore) *Engine { return exec.NewOver(docs) }

// NewDocStore returns an empty versioned document store; register
// collections with RegisterDoc (each registration bumps the store version).
func NewDocStore(opts StoreOptions) *DocStore { return store.New(opts) }

// NewResultCache returns an LRU whole-program result cache holding at most
// capacity entries; assign it to Engine.Cache.
func NewResultCache(capacity int) *ResultCache { return store.NewCache(capacity) }

// NewPlanCache returns an LRU search-plan cache holding at most capacity
// plans; assign it to Engine.Plans.
func NewPlanCache(capacity int) *PlanCache { return match.NewPlanCache(capacity) }

// ParseGraph parses a single graph literal in the language syntax
// (`graph G { node v1 <label="A">; ... };`).
func ParseGraph(src string) (*Graph, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Stmts) != 1 {
		return nil, fmt.Errorf("gqldb: expected a single graph declaration, found %d statements", len(prog.Stmts))
	}
	d, ok := prog.Stmts[0].(*ast.GraphDecl)
	if !ok {
		return nil, fmt.Errorf("gqldb: expected a graph declaration")
	}
	return d.ToGraph()
}

// ParsePattern parses a single pattern declaration in the language syntax
// (`graph P { node v1 where name="A"; };`).
func ParsePattern(src string) (*Pattern, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Stmts) != 1 {
		return nil, fmt.Errorf("gqldb: expected a single pattern declaration, found %d statements", len(prog.Stmts))
	}
	d, ok := prog.Stmts[0].(*ast.GraphDecl)
	if !ok {
		return nil, fmt.Errorf("gqldb: expected a graph pattern declaration")
	}
	return d.ToPattern()
}
