// Streaming result pipeline. The graphs-at-a-time algebra is naturally
// pipelined — every operator consumes and emits whole graphs one at a
// time — and this file exposes that incrementality: StreamQuery pushes
// result rows into a caller-supplied ResultSink as the return-clause
// fan-out produces them, in exactly the order the buffered path would
// collect. RunQuery and RunContext are thin collect-sink wrappers over the
// same pipeline, so buffered and streamed results cannot drift.
//
// Backpressure is blocking: Emit runs on the coordinating goroutine
// between parallel chunks, so a slow sink pauses selection and fan-out
// instead of buffering unboundedly. A sink error aborts the query; the
// sentinel ErrStopStream ends it early without error (the stream is
// marked truncated). Skip/take are honored inside the pipeline — skipped
// rows are never instantiated, and a reached take cancels the remaining
// fan-out.
package exec

import (
	"context"
	"errors"
	"runtime"
	"time"

	"gqldb/internal/algebra"
	"gqldb/internal/ast"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/obs"
	"gqldb/internal/parser"
	"gqldb/internal/pattern"
	"gqldb/internal/pool"
	"gqldb/internal/store"
)

// ResultSink receives result graphs as the pipeline produces them. Emit is
// called once per result row, in canonical output order, from the query's
// coordinating goroutine — implementations need no locking against the
// engine. Emit may block (backpressure pauses the producing fan-out);
// returning an error aborts the query with that error, and returning
// ErrStopStream ends the stream early without error. The sink owns each
// graph it receives and may mutate it freely.
type ResultSink interface {
	Emit(g *graph.Graph) error
}

// ErrStopStream is returned by a ResultSink to end the stream early: the
// query stops producing rows and StreamQuery returns a truncated result
// with a nil error.
var ErrStopStream = errors.New("exec: stop streaming")

// errStreamDone signals internally that the stream is complete (take
// reached or the sink stopped it); statement execution unwinds without
// treating it as a failure.
var errStreamDone = errors.New("exec: stream done")

// AllRows disables the take limit in StreamOptions.
const AllRows = -1

// StreamOptions are the per-stream pagination knobs.
type StreamOptions struct {
	// Skip drops the first Skip result rows without materializing them
	// (skipped matches are counted but never instantiated). Negative is
	// treated as zero.
	Skip int
	// Take caps the rows emitted after skipping: AllRows (or any negative
	// value) streams everything, 0 emits nothing. Reaching the cap cancels
	// the remaining work promptly.
	Take int
	// Snapshot, when non-nil, pins the store view the program executes
	// against — the batch endpoint runs several programs on one snapshot
	// for cross-query consistency. Nil takes a fresh snapshot.
	Snapshot *store.Snapshot
}

// StreamResult summarizes one streamed query.
type StreamResult struct {
	// Rows is how many rows were emitted to the sink.
	Rows int
	// Skipped is how many leading rows the Skip option dropped.
	Skipped int
	// Truncated reports that the stream ended before the program's full
	// result: the take limit was reached or the sink returned
	// ErrStopStream. It does not imply more rows existed — a take of
	// exactly the result size still runs to the limit.
	Truncated bool
	// Vars holds the final graph variables. A truncated stream carries no
	// vars: the program did not run to completion, so accumulators would
	// be partial.
	Vars map[string]*graph.Graph
	// Stats carries the per-operator records of the execution (empty on a
	// cache hit).
	Stats *match.Stats
	// Trace is the span tree when tracing was enabled, else nil.
	Trace *obs.Span
	// CacheHit reports that the rows were replayed from the result cache.
	CacheHit bool
}

// CollectSink buffers every emitted row — the adapter that turns the
// streaming pipeline back into the buffered Result shape.
type CollectSink struct {
	Graphs graph.Collection
}

// Emit implements ResultSink by appending.
func (s *CollectSink) Emit(g *graph.Graph) error {
	s.Graphs = append(s.Graphs, g)
	return nil
}

// streamState is the per-stream pagination and cache-fill state threaded
// through the environment. Only the coordinating goroutine touches it.
type streamState struct {
	sink      ResultSink
	skip      int
	take      int // < 0 unlimited, 0 emits nothing
	rows      int
	skipped   int
	truncated bool
	// filling buffers a clone of every emitted row for a cache fill. It is
	// only enabled for full streams (skip 0, take unlimited); the fill is
	// installed only when the stream completes un-truncated.
	filling bool
	fill    graph.Collection
}

// done reports that the take limit has been reached.
func (st *streamState) done() bool {
	return st.take >= 0 && st.rows >= st.take
}

// emit pushes one row to the sink, recording the cache-fill clone first
// (the sink owns — and may mutate — what it receives).
func (st *streamState) emit(g *graph.Graph) error {
	if st.filling {
		st.fill = append(st.fill, g.Clone())
	}
	if err := st.sink.Emit(g); err != nil {
		if errors.Is(err, ErrStopStream) {
			st.truncated = true
			return errStreamDone
		}
		return err
	}
	st.rows++
	obs.StreamRows.Inc()
	if st.done() {
		st.truncated = true
		return errStreamDone
	}
	return nil
}

// StreamQuery parses and executes a source program, pushing result rows
// into sink as they are produced. Rows arrive in exactly the order
// RunQuery would collect them; the buffered path is a CollectSink wrapper
// over this one.
//
// The result cache is both read and written: a hit replays the cached
// collection through the sink (cloned per row, so replays never alias),
// and a miss fills the cache only when the stream completes un-truncated
// with no skip/take — a partial stream must never masquerade as the full
// result.
//
// Parse failures return a *ParseError, as on RunQuery.
func (e *Engine) StreamQuery(ctx context.Context, src string, sink ResultSink, opts StreamOptions) (*StreamResult, error) {
	if sink == nil {
		return nil, errors.New("exec: StreamQuery requires a sink")
	}
	ctx, root, rooted := e.traceRoot(ctx)
	finish := func() {
		if rooted {
			root.End()
		}
	}
	psp := root.StartChild("parse")
	prog, err := parser.Parse(src)
	psp.End()
	if err != nil {
		finish()
		return nil, &ParseError{Err: err}
	}
	snap := opts.Snapshot
	if snap == nil {
		snap = e.snapshot()
	}
	st := &streamState{sink: sink, skip: opts.Skip, take: opts.Take}
	if st.skip < 0 {
		st.skip = 0
	}
	var key store.CacheKey
	if e.Cache != nil {
		key = store.KeyFor(canonicalProgram(src), snap, docsOf(prog))
		if v, ok := e.Cache.Get(key); ok {
			res, err := replayCached(root, v.(*cachedResult), st)
			finish()
			return res, err
		}
		st.filling = st.skip == 0 && st.take < 0
	}
	res, err := e.runInstrumented(ctx, prog, snap, st)
	finish()
	if err != nil {
		return nil, err
	}
	if st.truncated {
		obs.StreamTruncations.Inc()
	} else if st.filling {
		e.Cache.Put(key, &cachedResult{out: st.fill, vars: cloneVars(res.Vars)})
	}
	out := &StreamResult{Rows: st.rows, Skipped: st.skipped, Truncated: st.truncated, Stats: res.Stats, Trace: root}
	if !st.truncated {
		out.Vars = res.Vars
	}
	return out, nil
}

// replayCached streams a cache entry through the sink, honoring skip/take.
// Each row is cloned out so the entry stays pristine for future replays.
func replayCached(root *obs.Span, entry *cachedResult, st *streamState) (*StreamResult, error) {
	obs.Queries.Inc()
	start := time.Now()
	hsp := root.StartChild("cache-hit")
	var emitErr error
	for _, g := range entry.out {
		if st.done() {
			st.truncated = true
			break
		}
		if st.skipped < st.skip {
			st.skipped++
			continue
		}
		if emitErr = st.emit(g.Clone()); emitErr != nil {
			break
		}
	}
	hsp.Add("graphs", int64(st.rows))
	hsp.End()
	obs.QuerySeconds.Observe(time.Since(start))
	if emitErr != nil && !errors.Is(emitErr, errStreamDone) {
		return nil, emitErr
	}
	if st.truncated {
		obs.StreamTruncations.Inc()
	}
	res := &StreamResult{Rows: st.rows, Skipped: st.skipped, Truncated: st.truncated, Stats: &match.Stats{}, Trace: root, CacheHit: true}
	if !st.truncated {
		res.Vars = cloneVars(entry.vars)
	}
	return res, nil
}

// emitChunk sizes the batch of matches a rowEmitter instantiates per
// pool.Run: serial evaluation emits row-by-row (true pipelining); parallel
// evaluation batches a few rows per worker so the pool fan-out amortizes.
func emitChunk(workers int) int {
	if workers == 0 || workers == 1 {
		return 1
	}
	w := workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if c := 4 * w; c > 16 {
		return c
	}
	return 16
}

// rowEmitter is the streaming return clause: matches accumulate into
// fixed-size chunks, each chunk is instantiated on the worker pool into
// index-partitioned slots, and the slots are emitted in order with bounded
// memory and the sink's backpressure between chunks. Skip is applied
// before instantiation (skipped rows are never materialized) and a reached
// take stops the selection upstream via errStreamDone.
type rowEmitter struct {
	env     *environment
	ctx     context.Context
	p       *pattern.Pattern
	tmpl    *ast.TemplateDecl
	workers int
	chunk   int
	items   int64
	began   bool
	start   time.Time
	sp      *obs.Span
	sctx    context.Context
	pending algebra.Matched
	slots   graph.Collection
}

func newRowEmitter(env *environment, ctx context.Context, p *pattern.Pattern, tmpl *ast.TemplateDecl, workers int) *rowEmitter {
	return &rowEmitter{env: env, ctx: ctx, p: p, tmpl: tmpl, workers: workers, chunk: emitChunk(workers)}
}

// begin opens the operator span lazily, on the first chunk (or at close
// for an empty selection), so the span brackets actual fan-out work.
func (em *rowEmitter) begin() {
	if em.began {
		return
	}
	em.began = true
	em.sctx, em.sp = obs.StartSpan(em.ctx, "return-fanout")
	em.start = time.Now()
}

// group receives one selection group (all bindings of one document graph)
// and feeds the chunk buffer. It is called from the selection's
// coordinating goroutine, never from pool workers.
func (em *rowEmitter) group(ms algebra.Matched) error {
	st := em.env.stream
	for _, m := range ms {
		if st.done() {
			st.truncated = true
			return errStreamDone
		}
		em.items++
		if st.skipped < st.skip {
			st.skipped++
			continue
		}
		em.pending = append(em.pending, m)
		// Flush on a full chunk, or as soon as the buffered rows satisfy the
		// take limit — matches past the limit are never instantiated.
		if len(em.pending) >= em.chunk || (st.take >= 0 && st.rows+len(em.pending) >= st.take) {
			if err := em.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush instantiates the pending chunk on the worker pool and emits the
// rows in order.
func (em *rowEmitter) flush() error {
	if len(em.pending) == 0 {
		return nil
	}
	em.begin()
	n := len(em.pending)
	if cap(em.slots) < n {
		em.slots = make(graph.Collection, n)
	}
	slots := em.slots[:n]
	for i := range slots {
		slots[i] = nil
	}
	err := pool.Run(em.sctx, n, pool.Workers(em.workers, n), func(i int) error {
		g, err := em.env.instantiate(em.tmpl, map[string]algebra.Operand{
			em.p.Name: algebra.MatchedOperand(em.pending[i]),
		})
		if err != nil {
			return err
		}
		slots[i] = g
		return nil
	})
	if err != nil {
		return err
	}
	em.pending = em.pending[:0]
	for _, g := range slots {
		if err := em.env.stream.emit(g); err != nil {
			return err
		}
	}
	return nil
}

// close flushes the remainder and finalizes the operator span and stats.
// perr is the selection's error (nil on success); the first error wins.
func (em *rowEmitter) close(perr error) error {
	if perr == nil {
		perr = em.flush()
	}
	em.begin()
	resolved := pool.Workers(em.workers, em.chunk)
	em.sp.Add("items", em.items)
	em.sp.Add("workers", int64(resolved))
	em.env.stats.RecordOp("return-fanout", int(em.items), resolved, time.Since(em.start))
	em.sp.End()
	return perr
}
