package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gqldb/internal/algebra"
	"gqldb/internal/ast"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/obs"
	"gqldb/internal/store"
)

// streamAuthorsSrc yields one result row per author node, in collection
// order — the workload of every streamed-vs-buffered comparison.
const streamAuthorsSrc = `for graph Q { node v1 <author>; } exhaustive in doc("DBLP")
return graph { node Q.v1; };`

// authors returns n single-author graphs with distinct names, so every
// result row is distinguishable and ordered.
func authors(n int) graph.Collection {
	c := make(graph.Collection, 0, n)
	for i := 0; i < n; i++ {
		g := graph.New(fmt.Sprintf("G%d", i))
		g.AddNode("v1", graph.TupleOf("author", "name", fmt.Sprintf("A%05d", i)))
		c = append(c, g)
	}
	return c
}

// shardedEngine builds an engine over the collection partitioned into the
// given shard count.
func shardedEngine(coll graph.Collection, shards int) *Engine {
	ds := store.New(store.Options{Shards: shards})
	ds.RegisterDoc("DBLP", coll)
	return NewOver(ds)
}

// render stringifies a collection for order-sensitive comparison.
func render(c graph.Collection) []string {
	out := make([]string, len(c))
	for i, g := range c {
		out[i] = g.String()
	}
	return out
}

// referenceRows evaluates a single for/return program over coll without the
// engine: a plain loop with match.Find over the inline pattern, then the
// return template once per binding. It shares nothing with the selection
// kernel — no pool, no rounds, no index filter, no coordinator.
func referenceRows(t *testing.T, src string, coll graph.Collection) []string {
	t.Helper()
	f := parse(t, src).Stmts[0].(*ast.FLWRStmt)
	p, err := f.Pattern.ToPattern()
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := f.Return.ToTemplate()
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, g := range coll {
		maps, _, err := match.Find(p, g, nil, match.Options{Exhaustive: f.Exhaustive})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range maps {
			row, err := tmpl.Instantiate(map[string]algebra.Operand{
				p.Name: algebra.MatchedOperand(&algebra.MatchedGraph{P: p, G: g, M: m}),
			})
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row.String())
		}
	}
	return rows
}

// window applies the documented skip/take semantics to the full result:
// the take limit is checked before and after every row (so take of the
// exact result size, and take zero over a non-empty result, both count as
// truncated), and skipping never materializes a row.
func window(all []string, skip, take int) (rows []string, skipped int, truncated bool) {
	rows = []string{}
	for _, s := range all {
		if take >= 0 && len(rows) >= take {
			truncated = true
			break
		}
		if skipped < skip {
			skipped++
			continue
		}
		rows = append(rows, s)
		if take >= 0 && len(rows) >= take {
			truncated = true
			break
		}
	}
	return rows, skipped, truncated
}

// TestStreamMatchesBufferedGrid proves the tentpole contract: for every
// shard count, worker count and skip/take edge, the streamed rows are
// byte-identical to the engine-free reference windowed in plain Go, and so
// is the buffered result.
func TestStreamMatchesBufferedGrid(t *testing.T) {
	coll := authors(23)
	n := len(coll)

	all := referenceRows(t, streamAuthorsSrc, coll)
	buffered, err := newEngine(docs{"DBLP": coll}).RunQuery(context.Background(), streamAuthorsSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(buffered.Out); fmt.Sprint(got) != fmt.Sprint(all) {
		t.Fatalf("buffered result differs from the reference:\ngot:  %v\nwant: %v", got, all)
	}
	if len(all) != n {
		t.Fatalf("oracle rows = %d, want %d", len(all), n)
	}

	windows := []struct{ skip, take int }{
		{0, AllRows}, {0, 0}, {0, 3}, {2, 3}, {0, n}, {0, n + 5},
		{n - 1, AllRows}, {n + 5, AllRows}, {3, n}, {n, 0},
	}
	for _, shards := range []int{1, 4, 17} {
		for _, workers := range []int{1, 16} {
			e := shardedEngine(coll, shards)
			e.Workers = workers
			for _, win := range windows {
				name := fmt.Sprintf("shards=%d/workers=%d/skip=%d/take=%d", shards, workers, win.skip, win.take)
				t.Run(name, func(t *testing.T) {
					wantRows, wantSkipped, wantTrunc := window(all, win.skip, win.take)
					sink := &CollectSink{}
					res, err := e.StreamQuery(context.Background(), streamAuthorsSrc, sink,
						StreamOptions{Skip: win.skip, Take: win.take})
					if err != nil {
						t.Fatal(err)
					}
					got := render(sink.Graphs)
					if len(got) != len(wantRows) {
						t.Fatalf("rows = %d, want %d", len(got), len(wantRows))
					}
					for i := range wantRows {
						if got[i] != wantRows[i] {
							t.Fatalf("row %d differs:\ngot:  %s\nwant: %s", i, got[i], wantRows[i])
						}
					}
					if res.Rows != len(wantRows) || res.Skipped != wantSkipped || res.Truncated != wantTrunc {
						t.Fatalf("summary rows=%d skipped=%d truncated=%v, want %d %d %v",
							res.Rows, res.Skipped, res.Truncated, len(wantRows), wantSkipped, wantTrunc)
					}
					if res.Truncated && res.Vars != nil {
						t.Fatal("truncated stream carried vars")
					}
				})
			}
		}
	}
}

// errorSink fails Emit after passing through a fixed number of rows.
type errorSink struct {
	pass int
	err  error
	got  int
}

func (s *errorSink) Emit(g *graph.Graph) error {
	if s.got >= s.pass {
		return s.err
	}
	s.got++
	return nil
}

// TestStreamSinkStop ends the stream early via ErrStopStream: a truncated
// success, not an error.
func TestStreamSinkStop(t *testing.T) {
	e := newEngine(docs{"DBLP": authors(40)})
	sink := &errorSink{pass: 3, err: ErrStopStream}
	res, err := e.StreamQuery(context.Background(), streamAuthorsSrc, sink, StreamOptions{Take: AllRows})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 3 || !res.Truncated {
		t.Fatalf("rows=%d truncated=%v, want 3 true", res.Rows, res.Truncated)
	}
	if res.Vars != nil {
		t.Fatal("stopped stream carried vars")
	}
}

// TestShardedStreamStopsEarly: a sink that stops after the first row ends
// the selection within one kernel round on a sharded document too. Members
// matched are counted from the selection spans' plan-cache hits, misses
// and gate rejections, which cover every candidate the kernel verified; at
// one worker a round is 64 members, so at most two rounds may run. A
// per-shard fan-out would match at least one whole shard (about a quarter
// of the members) before the merge could emit anything.
func TestShardedStreamStopsEarly(t *testing.T) {
	const n, round = 1200, 64
	e := shardedEngine(authors(n), 4)
	e.Workers = 1
	e.Trace = true
	e.Plans = match.NewPlanCache(16)
	res, err := e.StreamQuery(context.Background(), streamAuthorsSrc, &errorSink{pass: 1, err: ErrStopStream}, StreamOptions{Take: AllRows})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1 || !res.Truncated {
		t.Fatalf("rows=%d truncated=%v, want 1 true", res.Rows, res.Truncated)
	}
	var matched int64
	res.Trace.Walk(func(_ int, sp *obs.Span) {
		if sp.Name == "selection" {
			c := sp.Counts()
			matched += c["plan_cache_hits"] + c["plan_cache_misses"] + c["graph_gate_rejected"]
		}
	})
	if matched == 0 || matched > 2*round {
		t.Fatalf("the kernel matched %d of %d members before the stop, want 1..%d", matched, n, 2*round)
	}
}

// TestStreamSinkErrorAborts propagates a non-sentinel sink error as the
// query error.
func TestStreamSinkErrorAborts(t *testing.T) {
	e := newEngine(docs{"DBLP": authors(40)})
	boom := errors.New("sink exploded")
	_, err := e.StreamQuery(context.Background(), streamAuthorsSrc, &errorSink{pass: 2, err: boom}, StreamOptions{Take: AllRows})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// cancelSink cancels the context after the first row — the exec-level
// shape of a client disconnect.
type cancelSink struct {
	cancel context.CancelFunc
	rows   int
}

func (s *cancelSink) Emit(g *graph.Graph) error {
	s.rows++
	if s.rows == 1 {
		s.cancel()
	}
	return nil
}

// TestStreamCancelMidStream cancels during emission and requires prompt
// unwinding with ctx.Err.
func TestStreamCancelMidStream(t *testing.T) {
	e := shardedEngine(authors(5000), 17)
	e.Workers = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	_, err := e.StreamQuery(ctx, streamAuthorsSrc, &cancelSink{cancel: cancel}, StreamOptions{Take: AllRows})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("cancellation took %v", wall)
	}
}

// TestStreamCacheFillAndReplay: a complete un-truncated stream fills the
// result cache; replays stream identical rows (cloned, so sink mutation
// never corrupts the entry) and honor skip/take.
func TestStreamCacheFillAndReplay(t *testing.T) {
	e := newEngine(docs{"DBLP": authors(10)})
	e.Cache = store.NewCache(4)

	first := &CollectSink{}
	res1, err := e.StreamQuery(context.Background(), streamAuthorsSrc, first, StreamOptions{Take: AllRows})
	if err != nil {
		t.Fatal(err)
	}
	if res1.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	want := render(first.Graphs)

	// The sink owns its rows: mutate them all. The cached entry must be
	// unaffected because the fill cloned before Emit.
	for _, g := range first.Graphs {
		g.AddNode("intruder", nil)
	}

	second := &CollectSink{}
	res2, err := e.StreamQuery(context.Background(), streamAuthorsSrc, second, StreamOptions{Take: AllRows})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Fatal("second run missed the cache")
	}
	got := render(second.Graphs)
	if len(got) != len(want) {
		t.Fatalf("replay rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed row %d differs:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}

	// Mutate the replayed rows too, then take a paginated replay: still
	// pristine, still windowed.
	for _, g := range second.Graphs {
		g.AddNode("intruder", nil)
	}
	third := &CollectSink{}
	res3, err := e.StreamQuery(context.Background(), streamAuthorsSrc, third, StreamOptions{Skip: 2, Take: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res3.CacheHit || res3.Rows != 3 || res3.Skipped != 2 || !res3.Truncated {
		t.Fatalf("paginated replay: hit=%v rows=%d skipped=%d truncated=%v",
			res3.CacheHit, res3.Rows, res3.Skipped, res3.Truncated)
	}
	for i, s := range render(third.Graphs) {
		if s != want[2+i] {
			t.Fatalf("paginated replay row %d differs:\ngot:  %s\nwant: %s", i, s, want[2+i])
		}
	}
}

// TestStreamTruncatedNeverFillsCache: a paginated (or sink-stopped) stream
// must not masquerade as the full result in the cache.
func TestStreamTruncatedNeverFillsCache(t *testing.T) {
	e := newEngine(docs{"DBLP": authors(10)})
	e.Cache = store.NewCache(4)

	if _, err := e.StreamQuery(context.Background(), streamAuthorsSrc, &CollectSink{}, StreamOptions{Take: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StreamQuery(context.Background(), streamAuthorsSrc, &errorSink{pass: 1, err: ErrStopStream}, StreamOptions{Take: AllRows}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StreamQuery(context.Background(), streamAuthorsSrc, &CollectSink{}, StreamOptions{Skip: 3, Take: AllRows}); err != nil {
		t.Fatal(err)
	}
	if n := e.Cache.Stats().Entries; n != 0 {
		t.Fatalf("cache entries after truncated/partial streams = %d, want 0", n)
	}

	res, err := e.StreamQuery(context.Background(), streamAuthorsSrc, &CollectSink{}, StreamOptions{Take: AllRows})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("cache hit before any complete stream")
	}
	if n := e.Cache.Stats().Entries; n != 1 {
		t.Fatalf("cache entries after complete stream = %d, want 1", n)
	}
}

// TestStreamSnapshotPinned: an explicit snapshot option pins the store
// view — the mechanism /v2/batch uses to run several programs on one
// consistent version — so a RegisterDoc between pin and run is invisible.
func TestStreamSnapshotPinned(t *testing.T) {
	ds := store.New(store.Options{})
	ds.RegisterDoc("DBLP", authors(4))
	e := NewOver(ds)
	snap := ds.Snapshot()

	ds.RegisterDoc("DBLP", authors(9)) // concurrent writer, as far as the pinned reader is concerned

	sink := &CollectSink{}
	res, err := e.StreamQuery(context.Background(), streamAuthorsSrc, sink, StreamOptions{Take: AllRows, Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 4 {
		t.Fatalf("pinned snapshot rows = %d, want 4 (pre-registration view)", res.Rows)
	}
	fresh := &CollectSink{}
	if _, err := e.StreamQuery(context.Background(), streamAuthorsSrc, fresh, StreamOptions{Take: AllRows}); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Graphs) != 9 {
		t.Fatalf("fresh snapshot rows = %d, want 9", len(fresh.Graphs))
	}
}

// TestStreamConstantMemory pins the acceptance bar: with take fixed, the
// allocations on the sink path stay flat while the result cardinality
// grows 100× — the pipeline never materializes the result set.
func TestStreamConstantMemory(t *testing.T) {
	measure := func(coll graph.Collection) float64 {
		e := newEngine(docs{"DBLP": coll})
		return testing.AllocsPerRun(10, func() {
			sink := &CollectSink{}
			if _, err := e.StreamQuery(context.Background(), streamAuthorsSrc, sink, StreamOptions{Take: 5}); err != nil {
				t.Fatal(err)
			}
			if len(sink.Graphs) != 5 {
				t.Fatalf("rows = %d, want 5", len(sink.Graphs))
			}
		})
	}
	small := measure(authors(200))
	big := measure(authors(20000))
	if big > small*1.5+100 {
		t.Fatalf("allocs grew with cardinality: %v at 200 graphs, %v at 20000", small, big)
	}
}

// TestStreamStressRace hammers concurrent streamed queries across the
// shard/worker grid — run under -race, this is the pipeline's data-race
// check.
func TestStreamStressRace(t *testing.T) {
	coll := authors(97)
	want := func() []string {
		res, err := newEngine(docs{"DBLP": coll}).RunQuery(context.Background(), streamAuthorsSrc)
		if err != nil {
			t.Fatal(err)
		}
		return render(res.Out)
	}()

	for _, shards := range []int{1, 17} {
		e := shardedEngine(coll, shards)
		e.Workers = 16 // more workers than some shard populations
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for i := 0; i < 8; i++ {
			skip := i % 3
			wg.Add(1)
			go func() {
				defer wg.Done()
				sink := &CollectSink{}
				res, err := e.StreamQuery(context.Background(), streamAuthorsSrc, sink, StreamOptions{Skip: skip, Take: 50})
				if err != nil {
					errs <- err
					return
				}
				if res.Rows != 50 {
					errs <- fmt.Errorf("rows = %d, want 50", res.Rows)
					return
				}
				for j, s := range render(sink.Graphs) {
					if s != want[skip+j] {
						errs <- fmt.Errorf("row %d differs under contention", j)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
