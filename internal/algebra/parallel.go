package algebra

import (
	"context"
	"time"

	"gqldb/internal/expr"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/obs"
	"gqldb/internal/pattern"
	"gqldb/internal/pool"
)

// startOpSpan opens the operator's trace span (a no-op returning a nil span
// unless the context carries a trace) and stamps the fan-out shape every
// bulk operator shares.
func startOpSpan(ctx context.Context, op string, items, workers int) (context.Context, *obs.Span) {
	ctx, sp := obs.StartSpan(ctx, op)
	if sp != nil {
		sp.Add("items", int64(items))
		sp.Add("workers", int64(workers))
	}
	return ctx, sp
}

// sumInts totals one per-pattern-node candidate-count vector.
func sumInts(xs []int) int64 {
	var s int64
	for _, x := range xs {
		s += int64(x)
	}
	return s
}

// The context-aware bulk operators below are the parallel (and cancellable)
// forms of the §3.3 algebra. They all share the same contract:
//
//   - workers <= 0 means GOMAXPROCS, workers == 1 is the serial path; either
//     way the context is polled at least once per work item, and selection
//     additionally polls inside every backtracking step via match.FindContext.
//   - Output order is byte-identical to workers == 1: work is
//     index-addressed into pre-sized slots (pool.Run), then concatenated in
//     input order. Parallelism never changes a result.
//   - On error the operator returns the same error the serial evaluation
//     would have hit first (the pool's lowest-index error guarantee).
//   - stats may be nil; when set, one match.OpStat with the operator name,
//     item count, resolved worker count and wall time is appended.

// Ordinals returns 0..n-1 — the candidate list of an unfiltered selection.
func Ordinals(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// Method chooses how member i of a selection's collection is matched: the
// per-graph index to use (nil for none) and the match options, given the
// caller's. It runs on pool workers, so it must only read shared state. A
// nil Method matches every member unindexed with the caller's options.
type Method func(i int, opt match.Options) (*match.Index, match.Options)

// SelectStream is the selection kernel: the one place σ_P(C) is evaluated.
// cands lists the members of c to verify as ascending ordinals — the
// survivors of whatever access method ran in front (a path index, or
// Ordinals for a plain scan). They are matched in bounded rounds on the
// worker pool, and after each round every non-empty match group (all
// bindings of one member, in answer order) is pushed to emit(i, group)
// in candidate order from the calling goroutine. An emit error abandons the
// unmatched tail and is returned as-is, so a consumer that has seen enough
// stops the selection within one round. method, when set, picks each
// member's index and options (the store's per-member rule).
//
// The kernel owns the "selection" trace span and its §4 access-method
// counters, including how many members were matched with an index. The
// op-level records (Stats.RecordOp, the selection-latency histogram, the
// match counter) are not worker-safe and a shard fan-out runs the kernel on
// pool workers, so they stay with the entry points that own a coordinating
// goroutine: SelectionContext and store.Coordinator.
func SelectStream(ctx context.Context, p *pattern.Pattern, c graph.Collection, cands []int32, opt match.Options, method Method, workers int, emit func(i int, group Matched) error) error {
	if err := p.Compile(); err != nil {
		return err
	}
	resolved := pool.Workers(workers, len(cands))
	sctx, sp := startOpSpan(ctx, "selection", len(cands), resolved)
	defer sp.End()
	// One round is four pool claims of 16 per worker: every worker stays
	// busy, and the memory held between emissions is bounded by the round.
	chunk := min(64*resolved, len(cands))
	slots := make([]Matched, chunk)
	for lo := 0; lo < len(cands); lo += chunk {
		round := cands[lo:min(lo+chunk, len(cands))]
		clear(slots)
		err := pool.Run(sctx, len(round), workers, func(k int) error {
			g := c[round[k]]
			var ix *match.Index
			mopt := opt
			if method != nil {
				ix, mopt = method(int(round[k]), opt)
			}
			maps, st, err := match.FindContext(sctx, p, g, ix, mopt)
			if err != nil {
				return err
			}
			if sp != nil && ix != nil {
				sp.Add("indexed", 1)
			}
			switch {
			case sp == nil:
			case st.GraphGateRejected:
				// The member failed the pattern's graph gate before any
				// matching: it counts here and nowhere else, so plan-cache hits
				// + misses + rejections cover every candidate.
				sp.Add("graph_gate_rejected", 1)
			default:
				// Aggregate the §4 access-method counters across the members:
				// candidate-space sizes before/after local pruning and refinement,
				// backtracking steps, and mappings found. Span.Add is worker-safe.
				sp.Add("cand_baseline", sumInts(st.CandBaseline))
				sp.Add("cand_local", sumInts(st.CandLocal))
				sp.Add("cand_refined", sumInts(st.CandRefined))
				sp.Add("search_steps", st.SearchSteps)
				sp.Add("matches", int64(len(maps)))
				if st.PlanCacheHit {
					sp.Add("plan_cache_hits", 1)
				} else if opt.Plans != nil {
					sp.Add("plan_cache_misses", 1)
				}
			}
			if len(maps) > 0 {
				// One batch allocation per graph instead of one per match.
				mgs := make([]MatchedGraph, len(maps))
				group := make(Matched, len(maps))
				for j, m := range maps {
					mgs[j] = MatchedGraph{P: p, G: g, M: m}
					group[j] = &mgs[j]
				}
				slots[k] = group
			}
			return nil
		})
		if err != nil {
			return err
		}
		for k, group := range slots[:len(round)] {
			if len(group) == 0 {
				continue
			}
			if err := emit(int(round[k]), group); err != nil {
				return err
			}
		}
	}
	sp.SetAttr("pattern", p.Name)
	return nil
}

// SelectionContext evaluates σ_P(C): every graph in the collection is matched
// against p and each binding becomes a matched graph (§3.3). It is the
// collect form of SelectStream over the whole collection. Matched graphs stay
// grouped by collection order with bindings in the order match.FindContext
// defines. The "exhaustive" option controls one-vs-all bindings per graph;
// ixFor may be nil or return nil, and when present supplies per-graph access
// structures, used with the caller's options unchanged.
func SelectionContext(ctx context.Context, p *pattern.Pattern, c graph.Collection, opt match.Options, ixFor func(*graph.Graph) *match.Index, workers int, stats *match.Stats) (Matched, error) {
	var method Method
	if ixFor != nil {
		method = func(i int, opt match.Options) (*match.Index, match.Options) { return ixFor(c[i]), opt }
	}
	var out Matched
	start := time.Now()
	err := SelectStream(ctx, p, c, Ordinals(len(c)), opt, method, workers, func(_ int, group Matched) error {
		out = append(out, group...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	stats.RecordOp("selection", len(c), pool.Workers(workers, len(c)), wall)
	obs.SelectionSeconds.Observe(wall)
	obs.Matches.Add(int64(len(out)))
	return out, nil
}

// CartesianProductContext computes C × D: each output graph is
// graph { graph G1, G2; } — the two constituent graphs, unconnected (§3.3).
// Pair (i, j) is instantiated into slot i*|D|+j, so the output order is
// exactly the serial nested-loop order.
func CartesianProductContext(ctx context.Context, c, d graph.Collection, workers int, stats *match.Stats) (graph.Collection, error) {
	t := &Template{Name: "", Members: []TMember{TGraph{Var: "G1"}, TGraph{Var: "G2"}}}
	n := len(c) * len(d)
	workers = pool.Workers(workers, n)
	out := make(graph.Collection, n)
	sctx, sp := startOpSpan(ctx, "product", n, workers)
	start := time.Now()
	err := pool.Run(sctx, n, workers, func(i int) error {
		g1, g2 := c[i/len(d)], d[i%len(d)]
		g, err := t.Instantiate(map[string]Operand{
			"G1": GraphOperand(g1),
			"G2": GraphOperand(g2),
		})
		if err != nil {
			return err
		}
		g.Attrs = mergeAttrs(g1.Attrs, g2.Attrs)
		out[i] = g
		return nil
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	stats.RecordOp("product", n, workers, time.Since(start))
	return out, nil
}

// ValuedJoinContext computes C ⋈_P D = σ_P(C × D): the join condition is a
// predicate over attributes of the constituent graphs, which stay
// unconnected (§3.3). The predicate's names are resolved against the product
// graph (node attributes via embedded node names, graph attributes bare).
// Each pair is built and filtered in one parallel step (slot left nil when
// the predicate rejects), then compacted in pair order.
func ValuedJoinContext(ctx context.Context, c, d graph.Collection, pred expr.Expr, workers int, stats *match.Stats) (graph.Collection, error) {
	if pred == nil {
		return CartesianProductContext(ctx, c, d, workers, stats)
	}
	t := &Template{Name: "", Members: []TMember{TGraph{Var: "G1"}, TGraph{Var: "G2"}}}
	n := len(c) * len(d)
	workers = pool.Workers(workers, n)
	slots := make(graph.Collection, n)
	sctx, sp := startOpSpan(ctx, "valued-join", n, workers)
	start := time.Now()
	err := pool.Run(sctx, n, workers, func(i int) error {
		g1, g2 := c[i/len(d)], d[i%len(d)]
		g, err := t.Instantiate(map[string]Operand{
			"G1": GraphOperand(g1),
			"G2": GraphOperand(g2),
		})
		if err != nil {
			return err
		}
		g.Attrs = mergeAttrs(g1.Attrs, g2.Attrs)
		ok, err := expr.Holds(pred, graphEnv{g})
		if err != nil {
			return err
		}
		if ok {
			slots[i] = g
		}
		return nil
	})
	if err != nil {
		sp.End()
		return nil, err
	}
	stats.RecordOp("valued-join", n, workers, time.Since(start))
	var out graph.Collection
	for _, g := range slots {
		if g != nil {
			out = append(out, g)
		}
	}
	sp.Add("kept", int64(len(out)))
	sp.End()
	return out, nil
}

// ComposeContext is the primitive composition operator ω_T(C): instantiate
// the single-parameter template for every matched graph in the collection
// (§3.3). Param is the template's formal parameter name. Slot i holds the
// instantiation for matched graph i, preserving collection order.
func ComposeContext(ctx context.Context, t *Template, param string, c Matched, workers int, stats *match.Stats) (graph.Collection, error) {
	workers = pool.Workers(workers, len(c))
	out := make(graph.Collection, len(c))
	sctx, sp := startOpSpan(ctx, "compose", len(c), workers)
	start := time.Now()
	err := pool.Run(sctx, len(c), workers, func(i int) error {
		g, err := t.Instantiate(map[string]Operand{param: MatchedOperand(c[i])})
		if err != nil {
			return err
		}
		out[i] = g
		return nil
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	stats.RecordOp("compose", len(c), workers, time.Since(start))
	return out, nil
}

// StructuralJoinContext joins two collections by instantiating a
// two-parameter template for every pair — Cartesian product followed by
// composition, generating new structure (concatenation by edges or
// unification). Pair (i, j) instantiates into slot i*|D|+j.
func StructuralJoinContext(ctx context.Context, t *Template, p1, p2 string, c, d Matched, workers int, stats *match.Stats) (graph.Collection, error) {
	n := len(c) * len(d)
	workers = pool.Workers(workers, n)
	out := make(graph.Collection, n)
	sctx, sp := startOpSpan(ctx, "structural-join", n, workers)
	start := time.Now()
	err := pool.Run(sctx, n, workers, func(i int) error {
		g, err := t.Instantiate(map[string]Operand{
			p1: MatchedOperand(c[i/len(d)]),
			p2: MatchedOperand(d[i%len(d)]),
		})
		if err != nil {
			return err
		}
		out[i] = g
		return nil
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	stats.RecordOp("structural-join", n, workers, time.Since(start))
	return out, nil
}
