// Package exec evaluates GraphQL programs (§3.4): sequences of pattern
// declarations, graph-variable assignments and FLWR expressions. A for
// clause selects matched graphs from a document (collection); a return
// clause instantiates a template per match into the output collection; a
// let clause folds each match into an accumulator graph variable — the
// Figure 4.12 co-authorship construction.
package exec

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"gqldb/internal/algebra"
	"gqldb/internal/ast"
	"gqldb/internal/expr"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/motif"
	"gqldb/internal/obs"
	"gqldb/internal/pattern"
	"gqldb/internal/store"
)

// Engine evaluates programs against a document store.
type Engine struct {
	// Docs is the versioned document store queries read from. Every program
	// executes against one store snapshot taken at entry, so concurrent
	// RegisterDoc calls never tear an in-flight result. A nil Docs serves an
	// empty snapshot and refuses mutations.
	Docs *store.DocStore
	// Cache, when set, memoizes whole-program results by (canonical program
	// text, docs read, store version) — see RunQuery. RunContext bypasses
	// it (it receives a pre-parsed program; the canonical source text is the
	// cache's identity).
	Cache *store.Cache
	// Selector, when set, makes the coordinator fan every selection across
	// the document's shards through it and merge the answers (the
	// multi-process seam: store.RemoteSelector). Nil evaluates in process:
	// each shard's filter, then one selection pass over the document.
	Selector store.ShardSelector
	// Opts configures selection; Exhaustive is overridden per FLWR clause.
	// The store picks each member's access method itself and honours only
	// Exhaustive, Limit, CollectStats and Plans from here. The field goes
	// with the bench contract (ROADMAP), which still reads it.
	Opts match.Options
	// Plans, when set, caches search plans across queries: selection wires
	// it into match.Options with the snapshot version as the validity
	// fence, so repeated patterns over unchanged documents skip retrieval,
	// refinement and ordering. Shared safely by concurrent requests.
	Plans *match.PlanCache
	// DeriveDepth bounds recursive-motif derivation (default 8).
	DeriveDepth int
	// DeriveLimit bounds the number of derived motifs (default 64).
	DeriveLimit int
	// Workers bounds the worker pool used for the for-clause: selection
	// over the document and return-clause instantiation both fan out over
	// up to Workers goroutines. 0 or 1 evaluates serially (the zero value
	// keeps the original behavior); negative means GOMAXPROCS. Output
	// order is identical at every setting.
	Workers int
	// Trace enables per-query trace collection: RunContext roots a span
	// tree (unless the context already carries one), threads it through
	// every phase and operator, and returns it in Result.Trace. Query
	// results are byte-identical with tracing on and off.
	Trace bool
	// SlowQuery, when positive, is the wall-time threshold above which a
	// finished program (successful or not) is reported to SlowQueryLog.
	SlowQuery time.Duration
	// SlowQueryLog receives slow-query records; nil falls back to the
	// standard logger.
	SlowQueryLog func(obs.SlowQueryRecord)
}

// RequestOptions are the per-request evaluation knobs a server frontend
// overrides on a shared engine without mutating it: the zero value of each
// field inherits the engine's setting.
type RequestOptions struct {
	// Workers overrides the for-clause fan-out when nonzero (negative means
	// GOMAXPROCS, as on Engine.Workers).
	Workers int
	// Trace enables trace collection for this request.
	Trace bool
	// SlowQuery overrides the slow-query threshold when nonzero.
	SlowQuery time.Duration
}

// Request returns a request-scoped shallow copy of the engine with o
// applied. The copy shares the store, indexes and option struct (all of
// which the engine only reads during evaluation), so concurrent requests
// may each take their own copy from one shared engine; mutating the copy's
// fields never races with other requests.
func (e *Engine) Request(o RequestOptions) *Engine {
	cp := *e
	if o.Workers != 0 {
		cp.Workers = o.Workers
	}
	if o.Trace {
		cp.Trace = true
	}
	if o.SlowQuery != 0 {
		cp.SlowQuery = o.SlowQuery
	}
	return &cp
}

// workerCount resolves Engine.Workers to a pool worker request: the zero
// value and 1 stay serial, negative asks the pool for GOMAXPROCS.
func (e *Engine) workerCount() int {
	if e.Workers == 0 {
		return 1
	}
	return e.Workers
}

// Result is the outcome of running a program.
type Result struct {
	// Out collects the graphs produced by return clauses, in order.
	Out graph.Collection
	// Vars holds the graph variables (accumulators) by name.
	Vars map[string]*graph.Graph
	// Stats carries per-operator timing and fan-out records (match.OpStat)
	// for the bulk operators the program executed.
	Stats *match.Stats
	// Trace is the query's span tree when tracing was enabled (Engine.Trace
	// or a span-carrying context), else nil.
	Trace *obs.Span
}

// NewOver returns an engine reading through the given document store (wrap
// a plain document map with store.FromMap) whose selections are exhaustive.
// The store chooses how each member is matched: the §5.1 baseline below a
// measured size, the paper's §4 access methods on its indexed members at or
// above it; the rows are the same either way (match.FindContext fixes
// their order).
func NewOver(docs *store.DocStore) *Engine {
	return &Engine{Docs: docs, Opts: match.Options{Exhaustive: true}}
}

// snapshot pins the store view one program executes against.
func (e *Engine) snapshot() *store.Snapshot {
	if e.Docs == nil {
		return store.EmptySnapshot()
	}
	return e.Docs.Snapshot()
}

// RunContext executes a parsed program under a context: cancellation is
// checked between statements, per work item inside every bulk operator, and
// on every backtracking step of each selection, so a cancelled program
// returns ctx.Err() promptly even mid-match.
//
// Observability: the run is counted in the process metrics; when tracing is
// enabled (Engine.Trace, or a span installed in ctx via obs.NewContext) the
// evaluation phases record a span tree, returned in Result.Trace. A run
// whose wall time crosses Engine.SlowQuery is reported to the slow-query
// log hook whether it succeeded or failed.
//
// Like RunQuery, it is the streaming pipeline collected into a CollectSink.
func (e *Engine) RunContext(ctx context.Context, prog *ast.Program) (*Result, error) {
	ctx, root, rooted := e.traceRoot(ctx)
	sink := &CollectSink{}
	res, err := e.runInstrumented(ctx, prog, e.snapshot(), &streamState{sink: sink, take: AllRows})
	if rooted {
		root.End()
	}
	if err != nil {
		return nil, err
	}
	res.Out, res.Trace = sink.Graphs, root
	return res, nil
}

// traceRoot resolves the run's root span: a span already carried by ctx is
// reused; otherwise Engine.Trace roots a fresh one. rooted reports that
// this call created the root and owns its End.
func (e *Engine) traceRoot(ctx context.Context) (context.Context, *obs.Span, bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	root := obs.FromContext(ctx)
	rooted := false
	if root == nil && e.Trace {
		root = obs.NewTrace("query")
		rooted = true
	}
	if root != nil {
		ctx = obs.NewContext(ctx, root)
	}
	return ctx, root, rooted
}

// runInstrumented executes the program against one pinned store snapshot
// with the query-level metrics and the slow-query hook applied. The
// snapshot is a parameter (not re-taken) so callers that compute a cache
// key from a snapshot execute against exactly that version. A non-nil st
// switches return clauses to the streaming pipeline.
func (e *Engine) runInstrumented(ctx context.Context, prog *ast.Program, snap *store.Snapshot, st *streamState) (*Result, error) {
	obs.Queries.Inc()
	start := time.Now()
	res, executed, err := e.run(ctx, prog, snap, st)
	wall := time.Since(start)
	obs.QuerySeconds.Observe(wall)
	if err != nil {
		obs.QueryErrors.Inc()
	}
	if e.SlowQuery > 0 && wall >= e.SlowQuery {
		obs.SlowQueries.Inc()
		rec := obs.SlowQueryRecord{Wall: wall, Statements: executed, Err: err, Trace: obs.FromContext(ctx)}
		if e.SlowQueryLog != nil {
			e.SlowQueryLog(rec)
		} else {
			log.Printf("exec: %s", rec)
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// run executes the program statements, returning the result, the number of
// statements executed, and the terminal error.
func (e *Engine) run(ctx context.Context, prog *ast.Program, snap *store.Snapshot, st *streamState) (*Result, int, error) {
	env := &environment{
		engine:  e,
		ctx:     ctx,
		snap:    snap,
		stream:  st,
		stats:   &match.Stats{},
		decls:   map[string]*ast.GraphDecl{},
		vars:    map[string]*graph.Graph{},
		grammar: motif.NewGrammar(),
	}
	done := ctx.Done()
	for i, s := range prog.Stmts {
		if done != nil {
			select {
			case <-done:
				return nil, i, ctx.Err()
			default:
			}
		}
		if err := env.exec(s); err != nil {
			// A completed stream (take reached, sink stop) ends the program
			// early without failing it; later statements do not run and the
			// truncation is recorded on the stream state.
			if errors.Is(err, errStreamDone) {
				return &Result{Vars: env.vars, Stats: env.stats}, i + 1, nil
			}
			return nil, i, err
		}
	}
	return &Result{Vars: env.vars, Stats: env.stats}, len(prog.Stmts), nil
}

// environment is the mutable execution state.
type environment struct {
	engine *Engine
	ctx    context.Context
	snap   *store.Snapshot
	// stream receives the rows of return clauses; only the coordinating
	// goroutine touches it.
	stream  *streamState
	stats   *match.Stats
	decls   map[string]*ast.GraphDecl
	vars    map[string]*graph.Graph
	grammar *motif.Grammar
}

func (env *environment) exec(s ast.Stmt) error {
	switch x := s.(type) {
	case *ast.GraphDecl:
		return env.declare(x)
	case *ast.AssignStmt:
		g, err := env.instantiate(x.Tmpl, nil)
		if err != nil {
			return err
		}
		g.Name = x.Name
		env.vars[x.Name] = g
		return nil
	case *ast.FLWRStmt:
		return env.flwr(x)
	case *ast.MutationStmt:
		return fmt.Errorf("exec: %s is a mutation statement; run it through Engine.Mutate (or POST /v2/mutate)", x.Kind)
	}
	return fmt.Errorf("exec: unknown statement %T", s)
}

// declare registers a graph/pattern/motif declaration. Every declaration is
// also added to the motif grammar so later declarations can reference it.
func (env *environment) declare(d *ast.GraphDecl) error {
	if d.Name == "" {
		return fmt.Errorf("exec: top-level graph declarations must be named")
	}
	env.decls[d.Name] = d
	if d.Where == nil {
		if def, err := d.ToMotifDef(); err == nil {
			env.grammar.Add(def)
		}
	}
	return nil
}

// patterns lowers the declaration (named or inline) into one or more
// compiled patterns: one for a simple declaration, several for a recursive
// or disjunctive one (each derived motif becomes a pattern, per the
// recursive-pattern semantics of §3.2).
func (env *environment) patterns(d *ast.GraphDecl, extraWhere expr.Expr) ([]*pattern.Pattern, error) {
	if d.IsSimple() {
		p, err := d.ToPattern(extraWhere)
		if err != nil {
			return nil, err
		}
		return []*pattern.Pattern{p}, nil
	}
	if extraWhere != nil || d.Where != nil {
		return nil, fmt.Errorf("exec: predicates on recursive patterns are not supported")
	}
	def, err := d.ToMotifDef()
	if err != nil {
		return nil, err
	}
	env.grammar.Add(def)
	depth := env.engine.DeriveDepth
	if depth <= 0 {
		depth = 8
	}
	limit := env.engine.DeriveLimit
	if limit <= 0 {
		limit = 64
	}
	derived, err := env.grammar.Derive(d.Name, depth, limit)
	if err != nil {
		return nil, err
	}
	var out []*pattern.Pattern
	for _, g := range derived {
		p := pattern.New(d.Name)
		for _, n := range g.Nodes() {
			p.AddNode(n.Name, n.Attrs, nil)
		}
		for _, eg := range g.Edges() {
			p.AddEdge(eg.Name, eg.From, eg.To, eg.Attrs, nil)
		}
		if err := p.Compile(); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// flwr evaluates one for/let-or-return clause.
func (env *environment) flwr(f *ast.FLWRStmt) error {
	decl := f.Pattern
	if decl == nil {
		var ok bool
		decl, ok = env.decls[f.PatternName]
		if !ok {
			return fmt.Errorf("exec: undeclared pattern %s", f.PatternName)
		}
	}
	d, ok := env.snap.Doc(f.Doc)
	if !ok {
		return fmt.Errorf("exec: unknown document %q", f.Doc)
	}
	fctx, fsp := obs.StartSpan(env.ctx, "flwr")
	defer fsp.End()
	fsp.SetAttr("pattern", decl.Name)
	fsp.SetAttr("doc", f.Doc)

	csp := fsp.StartChild("compile")
	pats, err := env.patterns(decl, f.Where)
	csp.End()
	if err != nil {
		return err
	}
	csp.Add("patterns", int64(len(pats)))
	opts := env.engine.Opts
	opts.Exhaustive = f.Exhaustive
	if env.engine.Plans != nil {
		opts.Plans = env.engine.Plans
		// Fence plans on the document's version, not the store's: a mutation
		// elsewhere must not invalidate plans over this document's graphs.
		opts.PlanEpoch = d.Version()
	}

	workers := env.engine.workerCount()
	for _, p := range pats {
		if f.Return != nil {
			// The selection pushes match groups into the row emitter, so rows
			// reach the sink while later document graphs are still matching.
			em := newRowEmitter(env, fctx, p, f.Return, workers)
			if err := em.close(env.selectDoc(fctx, d, p, opts, workers, em.group)); err != nil {
				return err
			}
			continue
		}
		// A let clause folds each match into the accumulator variable as its
		// group arrives: every instantiation reads the previous value through
		// env.vars, so the fold is inherently sequential. Like the row
		// emitter's, its span opens on the first group (or at the end of an
		// empty selection), so it brackets actual fold work.
		var lsp *obs.Span
		items := 0
		err := env.selectDoc(fctx, d, p, opts, workers, func(ms algebra.Matched) error {
			if items == 0 {
				lsp = fsp.StartChild("let-fold")
			}
			items += len(ms)
			for _, m := range ms {
				g, err := env.instantiate(f.Let, map[string]algebra.Operand{
					p.Name: algebra.MatchedOperand(m),
				})
				if err != nil {
					return err
				}
				g.Name = f.LetName
				env.vars[f.LetName] = g
			}
			return nil
		})
		if items == 0 {
			lsp = fsp.StartChild("let-fold")
		}
		lsp.Add("items", int64(items))
		lsp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// selectDoc evaluates one pattern's selection over a document, pushing each
// member graph's match group to emit in canonical order. Every document goes
// through the store coordinator, which runs one in-process pass or fans out
// through the configured selector (see Coordinator.SelectStream); the
// engine holds no selection code of its own.
func (env *environment) selectDoc(ctx context.Context, d *store.Doc, p *pattern.Pattern, opts match.Options, workers int, emit func(algebra.Matched) error) error {
	co := &store.Coordinator{Selector: env.engine.Selector}
	return co.SelectStream(ctx, d, p, opts, workers, env.stats, emit)
}

// instantiate lowers and applies a template declaration. All current graph
// variables are available as operands alongside the explicit bindings; a
// bare reference template (let X := Y) copies the variable.
func (env *environment) instantiate(td *ast.TemplateDecl, bindings map[string]algebra.Operand) (*graph.Graph, error) {
	if td.Ref != "" {
		if g, ok := env.vars[td.Ref]; ok {
			return g.Clone(), nil
		}
		return nil, fmt.Errorf("exec: undefined graph variable %s", td.Ref)
	}
	tmpl, err := td.ToTemplate()
	if err != nil {
		return nil, err
	}
	args := make(map[string]algebra.Operand, len(env.vars)+len(bindings))
	for name, g := range env.vars {
		args[name] = algebra.GraphOperand(g)
	}
	for name, op := range bindings {
		args[name] = op
	}
	return tmpl.Instantiate(args)
}
