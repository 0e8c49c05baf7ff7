package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gqldb/internal/algebra"
	"gqldb/internal/ast"
	"gqldb/internal/exec"
	"gqldb/internal/gindex"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/parser"
	"gqldb/internal/pattern"
	"gqldb/internal/server"
	"gqldb/internal/shardsrv"
	"gqldb/internal/store"
)

// The traced run. ISSUE 11 forbids touching the program, so spans are
// recorded here, around calls into each layer's public functions, and
// nesting is reconstructed outside-in: the same op is timed at successive
// depths (handler ⊃ exec.StreamQuery ⊃ parse, compile, select ⊃ index
// filter, match; instantiate) and a layer's self time is its depth's time
// minus the depths below it. The spans of one op therefore come from
// separate executions of that op; README.md says how to read them.

// sampleOps is the most ops of a schedule the traced run replays.
const sampleOps = 200

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: the op itself
	Op     int    `json:"op"`     // position in the sampled schedule
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// time runs f as a span and returns its id and duration. With the tracer
// off it only measures, which is what the overhead ratio compares against.
func (t *tracer) time(op, parent int, name string, f func()) (int, time.Duration) {
	start := time.Now()
	f()
	end := time.Now()
	if !t.on {
		return 0, end.Sub(start)
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id, end.Sub(start)
}

// discardSink counts rows and drops them.
type discardSink struct{ rows int }

func (s *discardSink) Emit(*graph.Graph) error { s.rows++; return nil }

// mallocs returns the process's cumulative allocation count. The traced
// run is single-goroutine, so a delta around a call is that call's.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerSums accumulates the per-op measurements of the sample; metrics are
// means over the sample, which (unlike medians) add up across layers.
type layerSums struct {
	n                                        int
	handler, stream, selectOnly              time.Duration
	parse, compile, selectRun, instantiate   time.Duration
	candidates, serial, sharded, remote      time.Duration
	retrieve, refine, order, search, matchWT time.Duration
	steps, matches, rows, bodyBytes          int64
	graphs, passed                           int64
	findAllocs, queryAllocs                  uint64
	wireEnc, wireDec, shardSelect            time.Duration
	wireBytes, wireMatches                   int64
	handlerUS                                []float64
}

// replica is the in-process stand-in for a workload's deployment.
type replica struct {
	doc string
	// local is a store partitioned and indexed like the process that
	// matches (the server, or a cluster mirror).
	local *store.DocStore
	// eng evaluates like the live frontend minus the result cache: the
	// layer breakdown is of the evaluation path. hot adds the cache where
	// the live server has one.
	eng, hot *exec.Engine
	srv      *server.Server
	hotSrv   *server.Server
	// localPlans is the plan cache of the process that matches: the
	// server's own, or — on the cluster — a mirror's (a shard server always
	// has one, whatever the frontend's -plan-cache).
	localPlans *match.PlanCache
	// shard is a mirror's handler (cluster only).
	shard   *shardsrv.Server
	closers []func()
}

func (r *replica) close() {
	for _, c := range r.closers {
		c()
	}
}

// storeOptions are the partition and index settings of the process that
// matches in each workload, as deploy passes them on the command line.
func storeOptions(workload string) store.Options {
	if workload == wlPPIClique {
		return store.Options{Shards: 1}
	}
	return store.Options{Shards: 4, IndexMaxLen: 3}
}

func newReplica(workload, doc string, coll graph.Collection) *replica {
	r := &replica{doc: doc}
	r.local = store.New(storeOptions(workload))
	r.local.RegisterDoc(doc, coll)
	switch workload {
	case wlCollCluster:
		front := store.New(store.Options{Shards: 4})
		front.RegisterDoc(doc, coll)
		var urls []string
		for i := 0; i < 2; i++ {
			sh := shardsrv.New(shardsrv.Config{Shards: 4, IndexMaxLen: 3})
			sh.RegisterDoc(doc, coll)
			ts := httptest.NewServer(sh)
			r.closers = append(r.closers, ts.Close)
			urls = append(urls, ts.URL)
			r.shard = sh
		}
		rs := store.NewRemoteSelector(urls)
		rs.SetHedgeAfter(0)
		r.eng = exec.NewOver(front)
		r.eng.Selector = rs
		r.localPlans = match.NewPlanCache(0)
	default:
		r.eng = exec.NewOver(r.local)
	}
	if workload == wlCollCached || workload == wlMutateMix {
		r.eng.Plans = match.NewPlanCache(256)
		r.localPlans = r.eng.Plans
		hot := *r.eng
		hot.Cache = store.NewCache(256)
		r.hot = &hot
		r.hotSrv = quietServer(r.hot)
	}
	r.srv = quietServer(r.eng)
	return r
}

// programParts returns the pattern declaration and the for clause of a
// read program (every generated program has exactly one of each).
func programParts(prog *ast.Program) (*ast.GraphDecl, *ast.FLWRStmt, error) {
	var decl *ast.GraphDecl
	var flwr *ast.FLWRStmt
	for _, s := range prog.Stmts {
		switch x := s.(type) {
		case *ast.GraphDecl:
			decl = x
		case *ast.FLWRStmt:
			flwr = x
		}
	}
	if decl == nil || flwr == nil || flwr.Return == nil {
		return nil, nil, errors.New("bench: trace: program is not one pattern plus one for/return clause")
	}
	return decl, flwr, nil
}

// traceOp times one read op at every depth and adds it to sums.
func traceOp(tr *tracer, r *replica, in *inputs, opIdx int, op *readOp, sums *layerSums) error {
	ctx := context.Background()
	take := exec.AllRows
	if in.take >= 0 {
		take = in.take
	}

	// Depth 1: the request handler, no socket.
	var status int
	var body []byte
	hID, hDur := tr.time(opIdx, 0, "server.handler", func() {
		status, body = serveInProcess(r.srv, "/v2/query", op.body)
	})
	if err := checkRead(op, status, body); err != nil {
		return fmt.Errorf("bench: trace: in-process handler: %w", err)
	}

	// Depth 2: the engine, rows discarded; then the same with every row
	// skipped, which selects but never instantiates.
	var sres *exec.StreamResult
	var err error
	a0 := mallocs()
	eID, eDur := tr.time(opIdx, hID, "exec.stream_query", func() {
		sres, err = r.eng.StreamQuery(ctx, op.src, &discardSink{}, exec.StreamOptions{Take: take})
	})
	a1 := mallocs()
	if err != nil {
		return err
	}
	_, selOnly := tr.time(opIdx, eID, "exec.stream_query.select_only", func() {
		_, err = r.eng.StreamQuery(ctx, op.src, &discardSink{}, exec.StreamOptions{Skip: math.MaxInt32, Take: exec.AllRows})
	})
	if err != nil {
		return err
	}

	// Depth 3: the layers exec calls, one by one.
	var prog *ast.Program
	_, pDur := tr.time(opIdx, eID, "parser.parse", func() { prog, err = parser.Parse(op.src) })
	if err != nil {
		return err
	}
	decl, flwr, err := programParts(prog)
	if err != nil {
		return err
	}
	var p *pattern.Pattern
	_, cDur := tr.time(opIdx, eID, "pattern.compile", func() { p, err = decl.ToPattern() })
	if err != nil {
		return err
	}

	front, _ := r.eng.Docs.Snapshot().Doc(r.doc)
	local, _ := r.local.Snapshot().Doc(r.doc)
	opts := r.eng.Opts
	opts.Exhaustive = flwr.Exhaustive
	if r.eng.Plans != nil {
		opts.Plans, opts.PlanEpoch = r.eng.Plans, front.Version()
	}

	// Selection the way this workload's server runs it.
	var matched algebra.Matched
	remote := r.eng.Selector != nil
	sharded := front.Sharded() || remote
	selName := "algebra.selection"
	if remote {
		selName = "store.coordinator.select(remote)"
	} else if sharded {
		selName = "store.coordinator.select"
	}
	sID, sDur := tr.time(opIdx, eID, selName, func() {
		if sharded {
			co := &store.Coordinator{Selector: r.eng.Selector}
			matched, err = co.Select(ctx, front, p, opts, nil, 1, nil)
		} else {
			matched, err = algebra.SelectionContext(ctx, p, front.Collection(), opts, nil, 1, nil)
		}
	})
	if err != nil {
		return err
	}
	// The same selection the other ways, for the sharding overhead ratio:
	// in-process shards at one worker and a serial scan of everything, both
	// with the options of the process that matches. Whichever of the three
	// the server itself runs has just been timed and is not run again.
	lopts := opts
	lopts.Plans, lopts.PlanEpoch = r.localPlans, local.Version()
	shardedDur, serDur := sDur, sDur
	if remote {
		sums.remote += sDur
		_, shardedDur = tr.time(opIdx, 0, "store.coordinator.select(local, workers=1)", func() {
			_, err = (&store.Coordinator{}).Select(ctx, local, p, lopts, nil, 1, nil)
		})
		if err != nil {
			return err
		}
	}
	if sharded {
		sums.sharded += shardedDur
		_, serDur = tr.time(opIdx, 0, "algebra.selection(serial, whole collection)", func() {
			_, err = algebra.SelectionContext(ctx, p, local.Collection(), lopts, nil, 1, nil)
		})
		if err != nil {
			return err
		}
	}

	// Depth 4: inside selection — the path-index filter, then matching of
	// the survivors with per-phase statistics on.
	var cands [][]int32
	for _, sh := range local.Shards() {
		if sh.Ix == nil {
			all := make([]int32, len(sh.Coll))
			for i := range all {
				all[i] = int32(i)
			}
			cands = append(cands, all)
			continue
		}
		var c []int32
		_, d := tr.time(opIdx, sID, "gindex.candidates", func() { c, err = sh.Ix.Candidates(p) })
		if err != nil {
			return err
		}
		sums.candidates += d
		cands = append(cands, c)
	}
	mopts := lopts
	mopts.CollectStats = true
	f0 := mallocs()
	_, mDur := tr.time(opIdx, sID, "match.find", func() {
		for si, sh := range local.Shards() {
			sums.graphs += int64(len(sh.Coll))
			sums.passed += int64(len(cands[si]))
			for _, li := range cands[si] {
				maps, st, ferr := match.FindContext(ctx, p, sh.Coll[li], nil, mopts)
				if ferr != nil {
					err = ferr
					return
				}
				sums.retrieve += st.RetrieveTime
				sums.refine += st.RefineTime
				sums.order += st.OrderTime
				sums.search += st.SearchTime
				sums.steps += st.SearchSteps
				sums.matches += int64(len(maps))
			}
		}
	})
	f1 := mallocs()
	if err != nil {
		return err
	}

	// Template instantiation of the rows the op returns.
	tmpl, err := flwr.Return.ToTemplate()
	if err != nil {
		return err
	}
	rows := matched
	if take >= 0 && len(rows) > take {
		rows = rows[:take]
	}
	_, iDur := tr.time(opIdx, eID, "algebra.instantiate", func() {
		for _, m := range rows {
			if _, ierr := tmpl.Instantiate(map[string]algebra.Operand{p.Name: algebra.MatchedOperand(m)}); ierr != nil {
				err = ierr
				return
			}
		}
	})
	if err != nil {
		return err
	}
	if len(rows) != sres.Rows {
		return fmt.Errorf("bench: trace: selection found %d rows, the engine streamed %d", len(rows), sres.Rows)
	}

	// The shard wire, on the cluster workload: shard 0's job encoded,
	// served by a mirror's handler, and decoded.
	if remote {
		if err := traceWire(tr, r, opIdx, sID, front, p, opts, sums); err != nil {
			return err
		}
	}

	sums.n++
	sums.handler += hDur
	sums.handlerUS = append(sums.handlerUS, us(hDur))
	sums.stream += eDur
	sums.selectOnly += selOnly
	sums.parse += pDur
	sums.compile += cDur
	sums.selectRun += sDur
	sums.serial += serDur
	sums.matchWT += mDur
	sums.instantiate += iDur
	sums.rows += int64(sres.Rows)
	sums.bodyBytes += int64(len(body))
	sums.queryAllocs += a1 - a0
	sums.findAllocs += f1 - f0
	return nil
}

// traceWire times the shard wire for one op: request encode, one shard
// job through a mirror's /shard/select handler, response decode.
func traceWire(tr *tracer, r *replica, opIdx, parent int, d *store.Doc, p *pattern.Pattern, opts match.Options, sums *layerSums) error {
	sreq := store.ShardRequest{Shard: d.Shards()[0], P: p, Opt: opts, Workers: 1, Doc: d, Index: 0}
	var payload bytes.Buffer
	var err error
	_, enc := tr.time(opIdx, parent, "store.wire.encode_request", func() {
		err = store.EncodeRequest(&payload, &store.WireRequest{
			Doc: d.Name, Shard: 0, Shards: len(d.Shards()), Version: d.Version(), Hash: d.ContentHash(),
			Workers: 1, Pattern: store.EncodePattern(p), Options: store.EncodeOptions(opts),
		})
	})
	if err != nil {
		return err
	}
	req := httptest.NewRequest(http.MethodPost, "/shard/select", bytes.NewReader(payload.Bytes()))
	rec := httptest.NewRecorder()
	_, sel := tr.time(opIdx, parent, "shardsrv.select", func() { r.shard.ServeHTTP(rec, req) })
	frames := rec.Body.Bytes()
	var res store.ShardResult
	_, dec := tr.time(opIdx, parent, "store.wire.decode_result", func() {
		res, err = store.DecodeResult(bytes.NewReader(frames), sreq)
	})
	if err != nil {
		return fmt.Errorf("bench: trace: shard answer does not decode: %w", err)
	}
	// Encoding the answer is part of the mirror's handler; time it alone
	// on the decoded result, which is the same matches.
	var out bytes.Buffer
	_, encRes := tr.time(opIdx, parent, "store.wire.encode_result", func() { err = store.EncodeResult(&out, &res, d.Version()) })
	if err != nil {
		return err
	}
	sums.wireEnc += enc + encRes
	sums.wireDec += dec
	sums.shardSelect += sel
	sums.wireBytes += int64(payload.Len() + len(frames))
	for _, g := range res.Groups {
		sums.wireMatches += int64(len(g))
	}
	return nil
}

// traceWorkload makes the traced run for one workload and returns its
// per-layer metrics; the spans go to outDir/trace_<workload>.json.
func traceWorkload(cfg config, live *liveRun) ([]metric, error) {
	in := live.in
	budget := cfg.window * 2
	deadline := time.Now().Add(budget)

	var coll graph.Collection
	var err error
	var loads []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if coll, err = loadCorpus(in.corpusPath); err != nil {
			return nil, err
		}
		loads = append(loads, ms(time.Since(start)))
	}
	r := newReplica(cfg.workload, in.doc, coll)
	defer r.close()

	// The sample: the first reads of client 0's schedule.
	var sample []int
	for _, slot := range in.sched[0] {
		if slot != schedWrite {
			sample = append(sample, int(slot))
		}
		if len(sample) == sampleOps {
			break
		}
	}
	// One untimed pass fills plan caches and faults code in, as the live
	// warm-up does.
	seen := map[int]bool{}
	for _, ri := range sample {
		if seen[ri] {
			continue
		}
		seen[ri] = true
		if _, err := r.eng.StreamQuery(context.Background(), in.reads[ri].src, &discardSink{}, exec.StreamOptions{Take: exec.AllRows}); err != nil {
			return nil, err
		}
	}

	tr := &tracer{on: true, t0: time.Now()}
	var sums layerSums
	for i, ri := range sample {
		// The sample shrinks to what the time budget allows (never below
		// 20 ops), always as a prefix of the same schedule.
		if i >= 20 && time.Now().After(deadline) {
			break
		}
		if err := traceOp(tr, r, in, i, &in.reads[ri], &sums); err != nil {
			return nil, err
		}
	}
	n := float64(sums.n)
	per := func(d time.Duration) float64 { return us(d) / n }

	// Tracing overhead: the engine depth over the sample with the span
	// recorder on against the same with it off.
	overhead := func(on bool) time.Duration {
		t := &tracer{on: on, t0: time.Now()}
		start := time.Now()
		for i, ri := range sample[:sums.n] {
			if i >= 50 {
				break
			}
			t.time(i, 0, "exec.stream_query", func() {
				_, _ = r.eng.StreamQuery(context.Background(), in.reads[ri].src, &discardSink{}, exec.StreamOptions{Take: exec.AllRows})
			})
		}
		return time.Since(start)
	}
	untraced := overhead(false)
	traced := overhead(true)

	handlerSelf := per(sums.handler - sums.stream)
	execSelf := per(sums.stream - sums.parse - sums.compile - sums.selectRun - sums.instantiate)
	sort.Float64s(sums.handlerUS)
	handlerP50 := median(sums.handlerUS)

	out := []metric{
		{Name: "harness.sample_ops", Unit: "count", Value: n, Note: fmt.Sprintf("prefix of client 0's schedule, at most %d", sampleOps)},
		{Name: "harness.trace_overhead_ratio", Unit: "ratio", Value: ratio(float64(traced), float64(untraced)), Note: "engine depth with the span recorder on ÷ off"},
		{Name: "harness.layer_sum_ratio", Unit: "ratio", Value: ratio(per(sums.parse+sums.compile+sums.selectRun+sums.instantiate)+handlerSelf, per(sums.handler)), Note: "(parse+compile+select+instantiate+handler self) ÷ handler; the rest is exec.self_us"},
		{Name: "graph.load_ms", Unit: "ms", Value: medianOf(loads), Note: "ReadTSV/ReadBinary of the corpus file, median of 3"},
		{Name: "parser.parse_us", Unit: "us", Value: per(sums.parse)},
		{Name: "pattern.compile_us", Unit: "us", Value: per(sums.compile), Note: "GraphDecl.ToPattern: lowering plus Pattern.Compile"},
		{Name: "match.retrieve_us", Unit: "us", Value: per(sums.retrieve)},
		{Name: "match.refine_us", Unit: "us", Value: per(sums.refine)},
		{Name: "match.order_us", Unit: "us", Value: per(sums.order)},
		{Name: "match.search_us", Unit: "us", Value: per(sums.search)},
		{Name: "match.find_us", Unit: "us", Value: per(sums.matchWT), Note: "FindContext over the graphs that passed the index filter, CollectStats on"},
		{Name: "match.search_steps_per_match", Unit: "ratio", Value: ratio(float64(sums.steps), float64(sums.matches)), Note: "waste ratio"},
		{Name: "match.find_allocs", Unit: "allocs", Value: float64(sums.findAllocs) / n},
		{Name: "gindex.candidates_us", Unit: "us", Value: per(sums.candidates), Note: naIf(cfg.workload == wlPPIClique, "one large graph, no path index")},
		{Name: "gindex.pass_ratio", Unit: "ratio", Value: ratio(float64(sums.passed), float64(sums.graphs)), Note: "graphs verified ÷ graphs"},
		{Name: "algebra.select_serial_us", Unit: "us", Value: per(sums.serial), Note: "SelectionContext over the whole collection, workers=1"},
		{Name: "algebra.instantiate_us_per_row", Unit: "us", Value: ratio(us(sums.instantiate), float64(sums.rows))},
		{Name: "store.select_sharded_us", Unit: "us", Value: per(sums.sharded), Note: naIf(cfg.workload == wlPPIClique, "one shard")},
		{Name: "store.shard_overhead_ratio", Unit: "ratio", Value: ratio(float64(sums.sharded), float64(sums.serial)), Note: "sharded ÷ serial at workers=1; both use the plan cache where the server has one, only sharded uses the path index"},
		{Name: "store.select_remote_us", Unit: "us", Value: per(sums.remote), Note: naIf(cfg.workload != wlCollCluster, "no shard wire")},
		{Name: "exec.stream_query_us", Unit: "us", Value: per(sums.stream)},
		{Name: "exec.select_only_us", Unit: "us", Value: per(sums.selectOnly), Note: "StreamQuery with every row skipped: selects, never instantiates"},
		{Name: "exec.self_us", Unit: "us", Value: execSelf, Note: "stream_query − parse − compile − select − instantiate"},
		{Name: "exec.query_allocs", Unit: "allocs", Value: float64(sums.queryAllocs) / n},
		{Name: "server.handler_us", Unit: "us", Value: per(sums.handler), Note: fmt.Sprintf("ServeHTTP via httptest, result cache off; p50 %.1f", handlerP50)},
		{Name: "server.handler_self_us", Unit: "us", Value: handlerSelf, Note: "handler − stream_query: request decode, admission, graph rendering, NDJSON encode"},
		{Name: "server.encode_us_per_row", Unit: "us", Value: ratio(us(sums.handler-sums.stream), float64(sums.rows)), Note: "handler self ÷ rows (includes the per-request constant)"},
		{Name: "server.bytes_per_row", Unit: "bytes", Value: ratio(float64(sums.bodyBytes), float64(sums.rows))},
	}

	// The live-like handler: with the result cache where the live server
	// has one, replayed in schedule order, so its median is comparable
	// with the live read_p50_ms.
	cacheM, likeLive, err := traceCache(r, in, sample[:sums.n])
	if err != nil {
		return nil, err
	}
	if likeLive == 0 {
		likeLive = handlerP50
	}
	out = append(out, cacheM...)
	d := live.delta
	out = append(out,
		metric{Name: "server.socket_overhead_us", Unit: "us", Value: live.readP50*1000 - likeLive, Note: "live read p50 − in-process handler p50 (cached like the live server); on mutate_mix the live p50 also carries write contention"},
		metric{Name: "server.rejected_429", Unit: "count", Value: d["gqldb_http_overload_rejections_total"], Note: "live /metrics delta"},
		metric{Name: "store.cache_hit_ratio", Unit: "ratio", Value: ratio(d["gqldb_cache_hits_total"], d["gqldb_cache_hits_total"]+d["gqldb_cache_misses_total"]), Note: "live /metrics delta"},
		metric{Name: "store.plan_hit_ratio", Unit: "ratio", Value: ratio(d["gqldb_plan_cache_hits_total"], d["gqldb_plan_cache_hits_total"]+d["gqldb_plan_cache_misses_total"]), Note: "live /metrics delta, all processes"},
		metric{Name: "store.cache_invalidations_per_write", Unit: "ratio", Value: ratio(d["gqldb_cache_invalidations_total"], float64(len(live.window.writeMS))), Note: "live /metrics delta ÷ acknowledged writes"},
		metric{Name: "store.remote_rpcs_per_query", Unit: "ratio", Value: ratio(d["gqldb_shard_rpcs_total"], d["gqldb_queries_total"]), Note: "live /metrics delta"},
		metric{Name: "store.remote_retries", Unit: "count", Value: d["gqldb_shard_retries_total"], Note: "live /metrics delta"},
		metric{Name: "store.remote_resyncs", Unit: "count", Value: d["gqldb_shard_resyncs_total"], Note: "live /metrics delta"},
		metric{Name: "store.wire_encode_us", Unit: "us", Value: per(sums.wireEnc), Note: naIf(cfg.workload != wlCollCluster, "no shard wire")},
		metric{Name: "store.wire_decode_us", Unit: "us", Value: per(sums.wireDec)},
		metric{Name: "store.wire_bytes_per_match", Unit: "bytes", Value: ratio(float64(sums.wireBytes), float64(sums.wireMatches))},
		metric{Name: "shardsrv.select_us", Unit: "us", Value: per(sums.shardSelect), Note: "one shard job through ShardServer.ServeHTTP"},
	)

	build, err := traceBuilds(cfg.workload, in, coll, r)
	if err != nil {
		return nil, err
	}
	out = append(out, build...)
	write, err := traceWrites(cfg, in, coll)
	if err != nil {
		return nil, err
	}
	out = append(out, write...)

	if err := writeTrace(cfg, tr); err != nil {
		return nil, err
	}
	return out, nil
}

func naIf(cond bool, why string) string {
	if cond {
		return "n/a: " + why
	}
	return ""
}

// traceCache measures the result-cache hit path on the workloads whose
// server has a cache and, on coll_cached, the median of a handler with
// the cache on replaying the sample in schedule order (0 elsewhere).
func traceCache(r *replica, in *inputs, sample []int) ([]metric, float64, error) {
	hitUS := metric{Name: "store.cache_hit_us", Unit: "us", Note: "n/a: result cache off"}
	hitAllocs := metric{Name: "store.cache_hit_allocs", Unit: "allocs", Note: hitUS.Note}
	if r.hot == nil {
		return []metric{hitUS, hitAllocs}, 0, nil
	}
	ctx := context.Background()
	var total time.Duration
	var allocs uint64
	n := 0
	seen := map[int]bool{}
	for _, ri := range sample {
		if seen[ri] {
			continue
		}
		seen[ri] = true
		src := in.reads[ri].src
		if _, err := r.hot.StreamQuery(ctx, src, &discardSink{}, exec.StreamOptions{Take: exec.AllRows}); err != nil {
			return nil, 0, err
		}
		a0 := mallocs()
		start := time.Now()
		res, err := r.hot.StreamQuery(ctx, src, &discardSink{}, exec.StreamOptions{Take: exec.AllRows})
		total += time.Since(start)
		allocs += mallocs() - a0
		if err != nil {
			return nil, 0, err
		}
		if !res.CacheHit {
			return nil, 0, errors.New("bench: trace: a repeated program missed a cache larger than the sample")
		}
		n++
	}
	hitUS.Value, hitUS.Note = us(total)/float64(n), fmt.Sprintf("StreamQuery replaying a cached result, mean over %d programs", n)
	hitAllocs.Value, hitAllocs.Note = float64(allocs)/float64(n), ""
	likeLive := 0.0
	if in.workload == wlCollCached {
		var hs []float64
		for _, ri := range sample {
			start := time.Now()
			serveInProcess(r.hotSrv, "/v2/query", in.reads[ri].body)
			hs = append(hs, us(time.Since(start)))
		}
		likeLive = medianOf(hs)
	}
	return []metric{hitUS, hitAllocs}, likeLive, nil
}

// traceBuilds times what a cold start builds: the §4.2 per-graph index on
// PPI (the server passes no IxFor today, so this is the price of wiring it
// in), the path index on DBLP, and a mirror's install of a pushed document.
func traceBuilds(workload string, in *inputs, coll graph.Collection, r *replica) ([]metric, error) {
	ixBuild := metric{Name: "index.build_ms", Unit: "ms", Note: "n/a: many small graphs, no per-graph index"}
	gBuild := metric{Name: "gindex.build_ms", Unit: "ms", Note: "n/a: one large graph, no path index"}
	gUpdate := metric{Name: "gindex.update_us", Unit: "us", Note: gBuild.Note}
	sync := metric{Name: "shardsrv.sync_ms", Unit: "ms", Note: "n/a: no mirrors"}
	if workload == wlPPIClique {
		start := time.Now()
		match.BuildIndex(coll[0], 1, false)
		ixBuild.Value, ixBuild.Note = ms(time.Since(start)), "match.BuildIndex(PPI, radius 1, profiles); not on the server's path today"
		return []metric{ixBuild, gBuild, gUpdate, sync}, nil
	}
	start := time.Now()
	ix := gindex.Build(coll, 3)
	gBuild.Value, gBuild.Note = ms(time.Since(start)), "gindex.Build over the whole collection, path length 3"
	// An update replaces one graph by a copy with one more author.
	var ups []float64
	for i := 0; i < 20; i++ {
		ord := (i * 97) % len(coll)
		g := coll[ord].Clone()
		g.AddNode("", graph.TupleOf("author", "name", "x", "label", "x"))
		next := append(graph.Collection(nil), coll...)
		next[ord] = g
		start := time.Now()
		ix.Update(next, []int32{int32(ord)})
		ups = append(ups, us(time.Since(start)))
	}
	gUpdate.Value, gUpdate.Note = medianOf(ups), "gindex.Index.Update for one changed graph, median of 20"
	if workload == wlCollCluster {
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, coll); err != nil {
			return nil, err
		}
		req := httptest.NewRequest(http.MethodPost, "/shard/sync?doc=SYNCED", bytes.NewReader(buf.Bytes()))
		rec := httptest.NewRecorder()
		start := time.Now()
		r.shard.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("bench: trace: /shard/sync answered %d: %s", rec.Code, rec.Body.String())
		}
		sync.Value, sync.Note = ms(time.Since(start)), "one /shard/sync of the whole document through ShardServer.ServeHTTP"
	}
	return []metric{ixBuild, gBuild, gUpdate, sync}, nil
}

// traceWrites times the write path layer by layer on mutate_mix: lowering
// and applying a batch in memory, appending it to a WAL with and without
// fsync, a checkpoint, and recovery of the log.
func traceWrites(cfg config, in *inputs, coll graph.Collection) ([]metric, error) {
	names := []string{"store.apply_us", "store.wal_append_nosync_us", "store.wal_append_sync_us",
		"store.wal_bytes_per_mutation", "store.checkpoint_ms", "store.wal_replay_ms"}
	units := []string{"us", "us", "us", "bytes", "ms", "ms"}
	out := make([]metric, len(names))
	for i := range out {
		out[i] = metric{Name: names[i], Unit: units[i], Note: "n/a: the workload has no writes"}
	}
	if cfg.workload != wlMutateMix {
		return out, nil
	}
	dir, err := os.MkdirTemp(cfg.workBase, "trace-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The store takes ownership of a mutation's tuples and body, so every
	// consumer lowers its own copy of client 0's first batches.
	const batches = 64
	ctx := context.Background()
	lower := func() ([][]store.Mutation, error) {
		var out [][]store.Mutation
		for _, w := range in.writes[0][:batches] {
			prog, err := parser.Parse(w.src)
			if err != nil {
				return nil, err
			}
			m, err := exec.LowerMutations(prog)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
		return out, nil
	}

	opts := storeOptions(cfg.workload)
	mem := store.New(opts)
	mem.RegisterDoc(in.doc, coll)
	var applies []float64
	muts, err := lower()
	if err != nil {
		return nil, err
	}
	for _, m := range muts {
		start := time.Now()
		if _, err := mem.ApplyBatch(ctx, m); err != nil {
			return nil, fmt.Errorf("bench: trace: apply: %w", err)
		}
		applies = append(applies, us(time.Since(start)))
	}
	out[0].Value, out[0].Note = medianOf(applies), fmt.Sprintf("DocStore.ApplyBatch in memory (stage, rebuild one shard, update its path index), median of %d", batches)

	if muts, err = lower(); err != nil {
		return nil, err
	}
	nMuts := 0
	for i, sync := range []bool{false, true} {
		path := filepath.Join(dir, fmt.Sprintf("wal-%v.log", sync))
		wal, _, err := store.OpenWAL(path, sync)
		if err != nil {
			return nil, err
		}
		var apps []float64
		nMuts = 0
		for seq, m := range muts {
			start := time.Now()
			if err := wal.Append(uint64(seq+1), m); err != nil {
				wal.Close()
				return nil, err
			}
			apps = append(apps, us(time.Since(start)))
			nMuts += len(m)
		}
		if err := wal.Close(); err != nil {
			return nil, err
		}
		out[1+i].Value, out[1+i].Note = medianOf(apps), fmt.Sprintf("WAL.Append, fsync %v, median of %d", sync, batches)
		if sync {
			st, err := os.Stat(path)
			if err != nil {
				return nil, err
			}
			out[3].Value, out[3].Note = float64(st.Size())/float64(nMuts), fmt.Sprintf("log bytes ÷ %d mutations", nMuts)
		}
	}

	boot := func(s *store.DocStore) error {
		if _, ok := s.Snapshot().Doc(in.doc); !ok {
			s.RegisterDoc(in.doc, coll)
		}
		return nil
	}
	dopts := store.DurableOptions{Dir: filepath.Join(dir, "durable"), Sync: true, CheckpointEvery: -1, Bootstrap: boot}
	d, err := store.OpenDurable(opts, dopts)
	if err != nil {
		return nil, err
	}
	if muts, err = lower(); err != nil {
		d.Close()
		return nil, err
	}
	for _, m := range muts {
		if _, err := d.ApplyBatch(ctx, m); err != nil {
			d.Close()
			return nil, err
		}
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	start := time.Now()
	d, err = store.OpenDurable(opts, dopts)
	if err != nil {
		return nil, fmt.Errorf("bench: trace: recovery: %w", err)
	}
	out[5].Value, out[5].Note = ms(time.Since(start)), fmt.Sprintf("OpenDurable: bootstrap (partition, index) plus replay of %d records", batches)
	start = time.Now()
	err = d.Checkpoint()
	out[4].Value, out[4].Note = ms(time.Since(start)), "Durable.Checkpoint: whole store to snapshot.bin, fsync, rename, log reset"
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return out, err
}

// writeTrace writes the spans to outDir/trace_<workload>.json.
func writeTrace(cfg config, tr *tracer) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{
		Workload: cfg.workload, Seed: cfg.seed,
		Note:  "spans recorded by bench/ around calls into each layer; the spans of one op are separate executions of that op at successive depths, and parent links give the logical nesting (0: the op). See bench/README.md.",
		Spans: tr.spans,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace_"+cfg.workload+".json"), b, 0o644)
}
