package store

import (
	"context"
	"errors"
	"time"

	"gqldb/internal/algebra"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/obs"
	"gqldb/internal/pattern"
	"gqldb/internal/pool"
)

// ShardRequest is one shard's slice of a selection: the shard to scan plus
// the matching options, as RemoteSelector puts them on the shard wire.
type ShardRequest struct {
	Shard *Shard
	P     *pattern.Pattern
	Opt   match.Options
	// Workers bounds the shard-local fan-out (resolved, >= 1).
	Workers int
	// Doc is the owning document and Index the shard's ordinal in
	// Doc.Shards(). The Coordinator fills both; LocalSelector reads the
	// members' §4 indexes from Doc, the remote selector needs both for the
	// wire request (document name, partition width, version handshake) and
	// endpoint routing.
	Doc   *Doc
	Index int
}

// ShardResult is one shard's answer: per-member match groups plus the
// filter counters the coordinator aggregates into its trace span.
type ShardResult struct {
	// Groups is parallel to Shard.Coll: Groups[i] holds the bindings of
	// member graph i in answer order (nil when it matched nothing or was
	// pruned by the shard index).
	Groups []algebra.Matched
	// Candidates is how many member graphs survived the shard-index filter
	// and were actually verified.
	Candidates int
	// Remote describes how a remote selector obtained this answer (nil for
	// in-process results); the coordinator turns it into a per-shard trace
	// span so EXPLAIN can show the fan-out.
	Remote *RemoteInfo
}

// RemoteInfo records how a remote selector answered one shard request.
type RemoteInfo struct {
	// Endpoint is the shard server that produced the answer.
	Endpoint string
	// Attempts is the total request attempts (1 = first try succeeded).
	Attempts int
	// Hedged reports whether a hedge request fired; HedgeWon whether the
	// replica's answer was the one used.
	Hedged   bool
	HedgeWon bool
	// Resynced reports whether the stale-version handshake pushed the
	// document to the shard before the answer.
	Resynced bool
	// Degraded reports an allow-partial empty answer after all attempts
	// failed (the shard's matches are missing from the result).
	Degraded bool
	// Wall is the end-to-end time spent obtaining the answer.
	Wall time.Duration
}

// ShardSelector evaluates selection over a single shard. This interface is
// the multi-process seam: RemoteSelector sends the shard's job over the
// shard wire, and a gqlshard mirror answers it with LocalSelector.
type ShardSelector interface {
	SelectShard(ctx context.Context, req ShardRequest) (ShardResult, error)
}

// candidates runs the shard's access method ahead of the kernel: the
// shard-local ordinals (into sh.Coll) that may contain the pattern, with the
// filter counters on an index-filter span. A shard without a path index
// passes every member; a nil slice from a carrying index is proof no member
// can match (gindex contract).
func (sh *Shard) candidates(ctx context.Context, p *pattern.Pattern) ([]int32, error) {
	if sh.Ix == nil {
		return algebra.Ordinals(len(sh.Coll)), nil
	}
	_, isp := obs.StartSpan(ctx, "index-filter")
	cands, err := sh.Ix.Candidates(p)
	isp.End()
	if err != nil {
		return nil, err
	}
	pruned := int64(len(sh.Coll) - len(cands))
	isp.Add("total", int64(len(sh.Coll)))
	isp.Add("candidates", int64(len(cands)))
	isp.Add("pruned", pruned)
	obs.GindexCandidates.Add(int64(len(cands)))
	obs.GindexPruned.Add(pruned)
	return cands, nil
}

// LocalSelector is the in-process ShardSelector, the one a gqlshard mirror
// answers with: the shard's index filter, then the selection kernel over
// the survivors with the document's per-member access methods (req.Doc must
// own req.Shard), collected into Groups.
type LocalSelector struct{}

// SelectShard implements ShardSelector.
func (LocalSelector) SelectShard(ctx context.Context, req ShardRequest) (ShardResult, error) {
	sh := req.Shard
	res := ShardResult{Groups: make([]algebra.Matched, len(sh.Coll))}
	cands, err := sh.candidates(ctx, req.P)
	if err != nil {
		return res, err
	}
	res.Candidates = len(cands)
	method := req.Doc.method()
	err = algebra.SelectStream(ctx, req.P, sh.Coll, cands, req.Opt, func(li int, opt match.Options) (*match.Index, match.Options) {
		return method(int(sh.Ords[li]), opt)
	}, req.Workers, func(li int, group algebra.Matched) error {
		res.Groups[li] = group
		return nil
	})
	return res, err
}

// Coordinator evaluates a selection over a document. With no Selector it
// is one in-process kernel pass over the document; a Selector (the
// multi-process query router's RemoteSelector) makes it fan the selection
// across the document's shards and merge the per-shard answers back into
// canonical collection order.
type Coordinator struct {
	Selector ShardSelector
}

// Select evaluates σ_P over the document, the collect form of
// SelectStream: the output is byte-identical to a serial scan of the
// unsharded collection (same graph order, same binding order within each
// graph). workers bounds the kernel's pool; a fan-out gives each shard's
// pool an equal share, so the goroutine count stays ~workers.
//
// Members are matched with the store's own per-member indexes. The ixFor
// argument is kept for source compatibility with older callers and must be
// nil: a per-call index would bypass the store's and is rejected.
func (co *Coordinator) Select(ctx context.Context, d *Doc, p *pattern.Pattern, opt match.Options, ixFor func(*graph.Graph) *match.Index, workers int, stats *match.Stats) (algebra.Matched, error) {
	if ixFor != nil {
		return nil, errors.New("store: Select takes no per-call index; members use the store's own")
	}
	var out algebra.Matched
	err := co.SelectStream(ctx, d, p, opt, workers, stats, func(ms algebra.Matched) error {
		out = append(out, ms...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SelectStream is Select with a push consumer, and the one entry point the
// engine's for-clause calls. Every member is matched with the index and
// options the store's rule (Doc.method) gives it. The path is chosen from
// the Selector, not from an option:
//
//   - no Selector: every shard's index filter runs, and the selection
//     kernel makes one pass over the survivors' canonical ordinals at any
//     shard count, streaming straight to emit; an early stop abandons the
//     unmatched tail;
//   - a Selector: shards evaluate concurrently through it and the merge is
//     a frontier walk — as each shard reports done, every canonical
//     ordinal whose owning shard has finished is emitted (non-empty groups
//     only, ascending ordinal), so downstream consumers see the first rows
//     while slower shards are still matching.
//
// emit runs on the calling goroutine; an emit error (including the streaming
// pipeline's early-stop sentinel) cancels the remaining work and is returned
// as-is.
func (co *Coordinator) SelectStream(ctx context.Context, d *Doc, p *pattern.Pattern, opt match.Options, workers int, stats *match.Stats, emit func(algebra.Matched) error) error {
	if err := p.Compile(); err != nil {
		return err
	}
	sel := co.Selector
	if sel == nil {
		return selectLocal(ctx, d, p, opt, workers, stats, emit)
	}
	shards := d.Shards()
	resolved := pool.Workers(workers, d.Len())
	outer := resolved
	if outer > len(shards) {
		outer = len(shards)
	}
	inner := resolved / len(shards)
	if inner < 1 {
		inner = 1
	}
	sctx, sp := obs.StartSpan(ctx, "sharded-selection")
	if sp != nil {
		sp.Add("items", int64(d.Len()))
		sp.Add("shards", int64(len(shards)))
		sp.Add("workers", int64(resolved))
	}
	start := time.Now()

	// Ordinal ownership: which shard (and local index) holds each canonical
	// ordinal, so the frontier walk reads groups straight out of shard
	// results without building a slot array.
	ordShard := make([]int32, d.Len())
	ordLocal := make([]int32, d.Len())
	for si, sh := range shards {
		for li, ord := range sh.Ords {
			ordShard[ord] = int32(si)
			ordLocal[ord] = int32(li)
		}
	}

	fanCtx, cancel := context.WithCancel(sctx)
	defer cancel()
	// done carries shard indexes as they complete (buffered: workers never
	// block on it); perr carries the pool's terminal error. The done send
	// happens before pool.Run returns, so results[si] is safely published
	// to the merging goroutine by the channel receive.
	doneCh := make(chan int, len(shards))
	perr := make(chan error, 1)
	results := make([]ShardResult, len(shards))
	go func() {
		perr <- pool.Run(fanCtx, len(shards), outer, func(i int) error {
			req := ShardRequest{Shard: shards[i], P: p, Opt: opt, Workers: inner, Doc: d, Index: i}
			res, err := sel.SelectShard(fanCtx, req)
			if err != nil {
				return err
			}
			results[i] = res
			doneCh <- i
			return nil
		})
	}()

	ready := make([]bool, len(shards))
	frontier := 0
	matches := 0
	candidates := 0
	// advance emits every ordinal whose owning shard has reported, in
	// ascending canonical order — exactly the serial-scan sequence.
	advance := func() error {
		for frontier < d.Len() && ready[ordShard[frontier]] { //gqlvet:ignore ctxpoll -- frontier advances every iteration; bounded by the document's member count
			group := results[ordShard[frontier]].Groups[ordLocal[frontier]]
			frontier++
			if len(group) == 0 {
				continue
			}
			matches += len(group)
			if err := emit(group); err != nil {
				return err
			}
		}
		return nil
	}
	arrived := func(si int) error {
		ready[si] = true
		candidates += results[si].Candidates
		// Remote answers get a per-shard child span. arrived runs on the
		// coordinator goroutine (the merge loop), so the coordinator-only
		// span mutators are safe here — workers must not touch sp.
		if ri := results[si].Remote; ri != nil && sp != nil {
			child := sp.StartChild("shard-rpc")
			child.Add("shard", int64(si))
			child.Add("attempts", int64(ri.Attempts))
			child.Add("wall_us", ri.Wall.Microseconds())
			if ri.Hedged {
				child.Add("hedged", 1)
			}
			if ri.HedgeWon {
				child.Add("hedge_won", 1)
			}
			if ri.Resynced {
				child.Add("resynced", 1)
			}
			if ri.Degraded {
				child.Add("degraded", 1)
			}
			child.SetAttr("endpoint", ri.Endpoint)
			child.End()
		}
		return advance()
	}

	remaining := len(shards)
	poolDone := false
	var poolErr, emitErr error
	for remaining > 0 && emitErr == nil && !poolDone { //gqlvet:ignore ctxpoll -- every iteration retires a shard or ends the pool; the blocking receives resolve because pool.Run itself polls the fan-out ctx
		select {
		case si := <-doneCh:
			remaining--
			emitErr = arrived(si)
		case poolErr = <-perr:
			poolDone = true
			// Completion signals that raced the pool's return are buffered;
			// drain them (a failed pool leaves some shards unsignaled — the
			// default arm ends the drain).
			for remaining > 0 && emitErr == nil { //gqlvet:ignore ctxpoll -- non-blocking drain; the default arm zeroes remaining on the first empty read
				select {
				case si := <-doneCh:
					remaining--
					emitErr = arrived(si)
				default:
					remaining = 0
				}
			}
		}
	}
	if emitErr != nil {
		// The consumer stopped the stream (or failed): cancel the in-flight
		// shards and wait for the pool to unwind before returning.
		cancel()
		if !poolDone {
			<-perr
		}
		sp.End()
		return emitErr
	}
	if !poolDone {
		poolErr = <-perr
	}
	if poolErr != nil {
		sp.End()
		return poolErr
	}
	wall := time.Since(start)
	obs.ShardedSelections.Inc()
	obs.SelectionSeconds.Observe(wall)
	stats.RecordOp("sharded-selection", d.Len(), resolved, wall)
	obs.Matches.Add(int64(matches))
	if sp != nil {
		sp.Add("cand_shards", int64(candidates))
		sp.Add("matches", int64(matches))
	}
	sp.SetAttr("pattern", p.Name)
	sp.End()
	return nil
}

// selectLocal is the in-process path of SelectStream: every shard's index
// filter, then one kernel pass over the survivors in canonical order, with
// the op-level records of a plain selection.
func selectLocal(ctx context.Context, d *Doc, p *pattern.Pattern, opt match.Options, workers int, stats *match.Stats, emit func(algebra.Matched) error) error {
	cands, err := d.candidates(ctx, p)
	if err != nil {
		return err
	}
	matches := 0
	start := time.Now()
	err = algebra.SelectStream(ctx, p, d.coll, cands, opt, d.method(), workers, func(_ int, group algebra.Matched) error {
		matches += len(group)
		return emit(group)
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	stats.RecordOp("selection", len(cands), pool.Workers(workers, len(cands)), wall)
	obs.SelectionSeconds.Observe(wall)
	obs.Matches.Add(int64(matches))
	return nil
}

// candidates is the document's access method ahead of the kernel: the
// canonical ordinals some shard's filter passes, ascending (marking the
// shards' disjoint sets merges them). Without path indexes (the store
// builds them on every shard or none) every member passes.
func (d *Doc) candidates(ctx context.Context, p *pattern.Pattern) ([]int32, error) {
	if d.shards[0].Ix == nil {
		return algebra.Ordinals(d.Len()), nil
	}
	pass := make([]bool, d.Len())
	for _, sh := range d.shards {
		cands, err := sh.candidates(ctx, p)
		if err != nil {
			return nil, err
		}
		for _, li := range cands {
			pass[sh.Ords[li]] = true
		}
	}
	var out []int32
	for ord, ok := range pass {
		if ok {
			out = append(out, int32(ord))
		}
	}
	return out, nil
}
