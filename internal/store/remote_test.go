package store_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gqldb/internal/exec"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/obs"
	"gqldb/internal/shardsrv"
	"gqldb/internal/store"
)

// startCluster launches n in-process shard servers (httptest), each
// mirroring the given documents at the given partition width, and returns
// their base URLs.
func startCluster(t testing.TB, n, shards int, docs map[string]graph.Collection) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := shardsrv.New(shardsrv.Config{Shards: shards, IndexMaxLen: 2})
		for name, c := range docs {
			srv.RegisterDoc(name, c)
		}
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	return urls
}

// remoteEngine builds a cluster frontend: a store partitioned at the given
// width with a RemoteSelector over the endpoints.
func remoteEngine(shards int, endpoints []string, docs map[string]graph.Collection) (*exec.Engine, *store.RemoteSelector) {
	eng := exec.NewOver(store.New(store.Options{Shards: shards}))
	for name, c := range docs {
		eng.Docs.RegisterDoc(name, c)
	}
	rs := store.NewRemoteSelector(endpoints)
	eng.Selector = rs
	return eng, rs
}

// candidateCounter passes shard requests on and sums the Candidates of
// every answer.
type candidateCounter struct {
	store.ShardSelector
	n atomic.Int64
}

func (c *candidateCounter) SelectShard(ctx context.Context, req store.ShardRequest) (store.ShardResult, error) {
	res, err := c.ShardSelector.SelectShard(ctx, req)
	c.n.Add(int64(res.Candidates))
	return res, err
}

// TestRemoteSelectorGrid is the oracle: across a shards × workers grid, a
// frontend fanning selection to a 3-process cluster renders byte-identical
// results to the engine-free reference. Its trace carries one shard-rpc
// child per shard in shard order, and cand_shards adds up the shards'
// candidate counts.
func TestRemoteSelectorGrid(t *testing.T) {
	docs := map[string]graph.Collection{"db": randomCollection(60, 5)}
	wantS := referenceResult(t, docs["db"])

	for _, shards := range []int{1, 3, 7} {
		endpoints := startCluster(t, 3, shards, docs)
		for _, workers := range []int{0, 2, 8} {
			eng, rs := remoteEngine(shards, endpoints, docs)
			counter := &candidateCounter{ShardSelector: rs}
			eng.Selector = counter
			eng.Workers = workers
			eng.Trace = true
			got, err := eng.RunQuery(t.Context(), storeQuery)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if gotS := renderResult(got); gotS != wantS {
				t.Fatalf("shards=%d workers=%d: cluster diverged from the reference\n got: %q\nwant: %q",
					shards, workers, gotS, wantS)
			}
			var selections int
			var cands int64
			got.Trace.Walk(func(_ int, sp *obs.Span) {
				if sp.Name != "sharded-selection" {
					return
				}
				selections++
				cands += sp.Count("cand_shards")
				var order []int64
				for _, c := range sp.Children() {
					if c.Name == "shard-rpc" {
						order = append(order, c.Count("shard"))
					}
				}
				want := make([]int64, shards)
				for i := range want {
					want[i] = int64(i)
				}
				if fmt.Sprint(order) != fmt.Sprint(want) {
					t.Fatalf("shards=%d workers=%d: shard-rpc spans carry shards %v, want %v", shards, workers, order, want)
				}
			})
			if selections == 0 {
				t.Fatalf("shards=%d workers=%d: no sharded-selection span", shards, workers)
			}
			if cands != counter.n.Load() {
				t.Fatalf("shards=%d workers=%d: cand_shards = %d, the shards answered %d candidates", shards, workers, cands, counter.n.Load())
			}
		}
	}
}

// TestRemoteSelectorResync: shard servers started empty converge on first
// contact (unknown_doc → sync → retry), and a frontend RegisterDoc makes
// the mirrors stale and re-converges them — results correct both times.
func TestRemoteSelectorResync(t *testing.T) {
	collA := randomCollection(40, 9)
	endpoints := startCluster(t, 3, 4, nil) // empty mirrors
	docs := map[string]graph.Collection{"db": collA}
	eng, _ := remoteEngine(4, endpoints, docs)

	oracle := exec.NewOver(store.New(store.Options{}))
	oracle.Docs.RegisterDoc("db", collA)
	want, err := oracle.RunQuery(t.Context(), storeQuery)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunQuery(t.Context(), storeQuery)
	if err != nil {
		t.Fatalf("query against empty mirrors did not converge: %v", err)
	}
	if renderResult(got) != renderResult(want) {
		t.Fatal("post-sync cluster result diverged from embedded engine")
	}

	// Mutate the frontend's document: mirrors are now stale and must
	// resync through the version handshake.
	collB := randomCollection(25, 31)
	eng.Docs.RegisterDoc("db", collB)
	oracle.Docs.RegisterDoc("db", collB)
	want, err = oracle.RunQuery(t.Context(), storeQuery)
	if err != nil {
		t.Fatal(err)
	}
	got, err = eng.RunQuery(t.Context(), storeQuery)
	if err != nil {
		t.Fatalf("query after RegisterDoc did not resync: %v", err)
	}
	if renderResult(got) != renderResult(want) {
		t.Fatal("post-RegisterDoc cluster result diverged from embedded engine")
	}
}

// TestRemoteSelectorRetry: with one endpoint dead, retry rotation reaches
// a replica and the query still answers correctly.
func TestRemoteSelectorRetry(t *testing.T) {
	docs := map[string]graph.Collection{"db": randomCollection(40, 13)}
	endpoints := startCluster(t, 2, 3, docs)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("unreachable") // closed below; nothing should ever arrive
	}))
	deadURL := dead.URL
	dead.Close()
	// The dead endpoint first: every shard's primary attempt fails and the
	// retry rotation must carry it to a live replica.
	eng, rs := remoteEngine(3, append([]string{deadURL}, endpoints...), docs)
	rs.SetRetries(2)

	oracle := exec.NewOver(store.New(store.Options{}))
	oracle.Docs.RegisterDoc("db", docs["db"])
	want, err := oracle.RunQuery(t.Context(), storeQuery)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunQuery(t.Context(), storeQuery)
	if err != nil {
		t.Fatalf("retry rotation did not reach a replica: %v", err)
	}
	if renderResult(got) != renderResult(want) {
		t.Fatal("retried cluster result diverged from embedded engine")
	}
}

// TestRemoteSelectorFailure: with every endpoint dead and no partial mode,
// the query fails with a typed per-shard error report.
func TestRemoteSelectorFailure(t *testing.T) {
	docs := map[string]graph.Collection{"db": randomCollection(10, 17)}
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	eng, rs := remoteEngine(2, []string{deadURL}, docs)
	rs.SetRetries(0)
	rs.SetTimeout(500 * time.Millisecond)

	_, err := eng.RunQuery(t.Context(), storeQuery)
	if err == nil {
		t.Fatal("query against a dead cluster succeeded")
	}
	var se *store.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *store.ShardError", err, err)
	}
	if se.Doc != "db" || se.Attempts < 1 || se.Endpoint == "" {
		t.Fatalf("incomplete shard error report: %+v", se)
	}
}

// TestRemoteSelectorPartial: under allow-partial, a dead cluster degrades
// to an empty answer instead of failing.
func TestRemoteSelectorPartial(t *testing.T) {
	docs := map[string]graph.Collection{"db": randomCollection(10, 19)}
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	eng, rs := remoteEngine(2, []string{deadURL}, docs)
	rs.SetRetries(0)
	rs.SetTimeout(500 * time.Millisecond)
	rs.SetAllowPartial(true)

	res, err := eng.RunQuery(t.Context(), storeQuery)
	if err != nil {
		t.Fatalf("allow-partial query failed: %v", err)
	}
	if len(res.Out) != 0 {
		t.Fatalf("degraded answer has %d results, want 0", len(res.Out))
	}
}

// TestRemoteSelectorHedge: a slow primary is overtaken by the hedged
// replica, and the answer stays byte-identical.
func TestRemoteSelectorHedge(t *testing.T) {
	docs := map[string]graph.Collection{"db": randomCollection(40, 23)}
	fast := startCluster(t, 1, 2, docs)
	// The slow primary: a delaying proxy in front of a real shard server.
	backend := shardsrv.New(shardsrv.Config{Shards: 2})
	for name, c := range docs {
		backend.RegisterDoc(name, c)
	}
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(2 * time.Second):
		}
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	eng, rs := remoteEngine(2, []string{slow.URL, fast[0]}, docs)
	rs.SetHedgeAfter(20 * time.Millisecond)
	rs.SetRetries(0)

	oracle := exec.NewOver(store.New(store.Options{}))
	oracle.Docs.RegisterDoc("db", docs["db"])
	want, err := oracle.RunQuery(t.Context(), storeQuery)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := eng.RunQuery(t.Context(), storeQuery)
	if err != nil {
		t.Fatalf("hedged query failed: %v", err)
	}
	if renderResult(got) != renderResult(want) {
		t.Fatal("hedged cluster result diverged from embedded engine")
	}
	if wall := time.Since(start); wall > 1500*time.Millisecond {
		t.Fatalf("hedge did not overtake the slow primary (wall %v)", wall)
	}
}

// TestRemoteSelectorHealth: the prober reports per-endpoint state — live
// endpoints healthy with their mirror census, dead endpoints unhealthy.
func TestRemoteSelectorHealth(t *testing.T) {
	docs := map[string]graph.Collection{"db": randomCollection(10, 29)}
	live := startCluster(t, 1, 2, docs)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	rs := store.NewRemoteSelector([]string{live[0], deadURL})
	rs.Probe(context.Background())
	h := rs.Health()
	if len(h) != 2 {
		t.Fatalf("health reports %d endpoints, want 2", len(h))
	}
	if !h[0].Healthy || h[0].Docs != 1 {
		t.Fatalf("live endpoint reported unhealthy: %+v", h[0])
	}
	if h[1].Healthy || h[1].Err == "" {
		t.Fatalf("dead endpoint reported healthy: %+v", h[1])
	}
}

// TestRemoteSelectorProbeOnce: a non-positive probe interval probes once
// and returns a no-op stop instead of handing it to time.NewTicker, which
// panics.
func TestRemoteSelectorProbeOnce(t *testing.T) {
	live := startCluster(t, 1, 2, map[string]graph.Collection{"db": randomCollection(10, 47)})
	rs := store.NewRemoteSelector(live)
	stop := rs.StartProbing(context.Background(), 0)
	defer stop()
	h := rs.Health()
	if len(h) != 1 || !h[0].Healthy || h[0].Checked.IsZero() || h[0].Docs != 1 {
		t.Fatalf("health after a one-shot probe = %+v, want one healthy, checked endpoint", h)
	}
}

// TestRemoteSelectorHedgedResync: when the primary is dead and the hedge
// backup answers stale, the resync goes to the backup (the endpoint whose
// error was returned), and the retried attempt answers correctly.
func TestRemoteSelectorHedgedResync(t *testing.T) {
	docs := map[string]graph.Collection{"db": randomCollection(40, 53)}
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	empty := startCluster(t, 1, 1, nil) // a mirror without the document
	eng, rs := remoteEngine(1, []string{deadURL, empty[0]}, docs)
	rs.SetHedgeAfter(time.Second)
	rs.SetRetries(0)

	d, _ := eng.Docs.Snapshot().Doc("db")
	p := abPattern(t)
	opt := match.Options{Exhaustive: true}
	res, err := rs.SelectShard(t.Context(), store.ShardRequest{Shard: d.Shards()[0], P: p, Opt: opt, Workers: 1, Doc: d})
	if err != nil {
		t.Fatalf("hedged stale answer did not resync the backup: %v", err)
	}
	if res.Remote == nil || !res.Remote.Resynced {
		t.Fatalf("RemoteInfo = %+v, want Resynced", res.Remote)
	}
	n := 0
	for _, g := range res.Groups {
		n += len(g)
	}
	if want := len(referenceSelection(t, p, docs["db"], opt)); n != want {
		t.Fatalf("resynced answer has %d matches, want %d", n, want)
	}
	got, err := eng.RunQuery(t.Context(), storeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(got) != referenceResult(t, docs["db"]) {
		t.Fatal("hedged cluster result diverged from the reference")
	}
}

// TestRemoteSelectorTopologyMismatch: a shard server partitioned at a
// different width answers with a typed topology error — the query fails
// loudly instead of merging a wrong partition.
func TestRemoteSelectorTopologyMismatch(t *testing.T) {
	docs := map[string]graph.Collection{"db": randomCollection(40, 37)}
	endpoints := startCluster(t, 1, 5, docs) // server partitioned at 5
	eng, rs := remoteEngine(3, endpoints, docs)
	rs.SetRetries(0)
	_, err := eng.RunQuery(t.Context(), storeQuery)
	if err == nil {
		t.Fatal("topology mismatch went unnoticed")
	}
	var re *store.ShardRemoteError
	if !errors.As(err, &re) || re.Code != store.WireCodeTopology {
		t.Fatalf("error is %v, want a topology ShardRemoteError", err)
	}
}

// TestRemoteSelectorMutationResync: an Apply batch on the frontend store
// changes the document's content hash, so stale mirrors are rejected by
// the handshake and re-synced on the next query — the cluster answer
// matches an embedded engine over the mutated store, before and after.
func TestRemoteSelectorMutationResync(t *testing.T) {
	coll := randomCollection(40, 43)
	docs := map[string]graph.Collection{"db": coll}
	endpoints := startCluster(t, 3, 4, docs) // mirrors seeded with the pre-mutation doc
	eng, _ := remoteEngine(4, endpoints, docs)

	oracle := exec.NewOver(store.New(store.Options{}))
	oracle.Docs.RegisterDoc("db", coll)
	runBoth := func(stage string) {
		t.Helper()
		want, err := oracle.RunQuery(t.Context(), storeQuery)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.RunQuery(t.Context(), storeQuery)
		if err != nil {
			t.Fatalf("%s: cluster query failed: %v", stage, err)
		}
		if renderResult(got) != renderResult(want) {
			t.Fatalf("%s: cluster result diverged from embedded engine", stage)
		}
	}
	runBoth("pre-mutation")

	// One batch on both the frontend and the oracle: a fresh A—B match plus
	// a deletion that cascades into existing matches.
	batch := []store.Mutation{
		{Op: store.OpCreateGraph, Doc: "db", Graph: "mut"},
		{Op: store.OpInsertNode, Doc: "db", Graph: "mut", Name: "x", Attrs: graph.TupleOf("", "label", "A")},
		{Op: store.OpInsertNode, Doc: "db", Graph: "mut", Name: "y", Attrs: graph.TupleOf("", "label", "B")},
		{Op: store.OpInsertEdge, Doc: "db", Graph: "mut", Name: "xy", From: "x", To: "y"},
	}
	ctx := context.Background()
	if _, err := eng.Docs.ApplyBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Docs.ApplyBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	runBoth("post-mutation")
}

var _ = fmt.Sprint // keep fmt imported for debugging edits

// TestRemoteSelectorCancelStopsRetries: the retry loop checks the caller's
// context before every attempt, so a query cancelled while its first
// attempt fails makes no further attempt and returns context.Canceled, not
// a *ShardError after the whole retry budget.
func TestRemoteSelectorCancelStopsRetries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var hits atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		cancel()
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer hs.Close()
	s := store.New(store.Options{Shards: 1})
	s.RegisterDoc("db", randomCollection(6, 5))
	d, _ := s.Snapshot().Doc("db")
	p := abPattern(t)
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	rs := store.NewRemoteSelector([]string{hs.URL})
	rs.SetRetries(5)
	rpcs := obs.ShardRPCs.Value()
	_, err := rs.SelectShard(ctx, store.ShardRequest{Shard: d.Shards()[0], P: p, Opt: match.Optimized(), Workers: 1, Doc: d})
	if err != context.Canceled {
		t.Fatalf("cancelled selection returned %v, want context.Canceled", err)
	}
	if n, calls := hits.Load(), obs.ShardRPCs.Value()-rpcs; n != 1 || calls != 1 {
		t.Fatalf("%d /shard/select hits and %d attempts after cancellation, want 1 and 1", n, calls)
	}
}
