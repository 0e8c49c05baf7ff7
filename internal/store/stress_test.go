package store_test

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"gqldb/internal/exec"
	"gqldb/internal/graph"
	"gqldb/internal/store"
)

// TestConcurrentRegisterVsQueries runs RegisterDoc in a loop while many
// goroutines query through a shared cached engine. Run under -race via
// `make race`. Every result must equal the oracle for one of the two
// collections that ever existed — a snapshot is either pre- or
// post-mutation, never a blend — and the cache must never serve the old
// result for a query that started after the bump (checked by the
// never-stale test; here the invariant is atomicity + no races).
func TestConcurrentRegisterVsQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	collA := randomCollection(50, 31)
	collB := randomCollection(50, 77)
	wantA := renderResult(mustRun(t, collA))
	wantB := renderResult(mustRun(t, collB))
	if wantA == wantB {
		t.Fatal("degenerate test: both collections produce identical results")
	}

	s := store.New(store.Options{Shards: 4})
	s.RegisterDoc("db", collA)
	e := exec.NewOver(s)
	e.Cache = store.NewCache(16)
	e.Workers = 4

	const queriers, rounds = 6, 20
	var wg sync.WaitGroup
	errs := make([]error, queriers)
	for k := 0; k < queriers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := e.RunQuery(context.Background(), storeQuery)
				if err != nil {
					errs[k] = err
					return
				}
				if got := renderResult(res); got != wantA && got != wantB {
					errs[k] = fmt.Errorf("round %d: result matches neither collection's oracle", r)
					return
				}
			}
		}()
	}
	// Mutator: flip the document between the two collections while queries
	// are in flight. RegisterDoc is fully synchronized — no startup-only
	// restriction — so this is the supported usage.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if r%2 == 0 {
				s.RegisterDoc("db", collB)
			} else {
				s.RegisterDoc("db", collA)
			}
		}
	}()
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("querier %d: %v", k, err)
		}
	}
}

// mustRun evaluates the stress query serially against a fresh engine over
// coll, providing the oracle rendering for one store state.
func mustRun(t testing.TB, coll graph.Collection) *exec.Result {
	t.Helper()
	res, err := exec.NewOver(store.FromMap(map[string]graph.Collection{"db": coll})).RunContext(context.Background(), mustParse(t, storeQuery))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCacheConcurrentAccess hammers one cache from many goroutines mixing
// Get, Put and version bumps; run under -race. The version-vector
// invariant must hold at every interleaving: a Get never returns a value
// stored under a version other than its own.
func TestCacheConcurrentAccess(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	c := store.NewCache(8)
	const workers, rounds = 8, 400
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				version := uint64(1 + r/50) // advances as the rounds progress
				key := store.CacheKey{Program: fmt.Sprintf("p%d", r%10), Docs: "db", Vers: strconv.FormatUint(version, 10)}
				if r%3 == 0 {
					c.Put(key, version)
				} else if v, ok := c.Get(key); ok {
					if v.(uint64) != version {
						errs[k] = fmt.Errorf("got value from version %d under key version %d", v, version)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", k, err)
		}
	}
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("cache over capacity: %+v", st)
	}
}

// TestShardFanoutWorkerEdges drives the coordinator at the worker-count
// edge cases (workers=1 serial, workers far above the shard and graph
// counts) concurrently from several goroutines sharing one snapshot, both
// as the in-process pass (no selector) and as the fan-out/frontier merge
// (an explicit LocalSelector); run under -race.
func TestShardFanoutWorkerEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	coll := randomCollection(60, 13)
	s := store.New(store.Options{Shards: 17})
	s.RegisterDoc("db", coll)
	oracle, err := exec.NewOver(store.FromMap(map[string]graph.Collection{"db": coll})).RunContext(context.Background(), mustParse(t, storeQuery))
	if err != nil {
		t.Fatal(err)
	}
	want := renderResult(oracle)

	type edgeCase struct {
		sel     store.ShardSelector
		workers int
	}
	var cases []edgeCase
	for _, sel := range []store.ShardSelector{nil, store.LocalSelector{}} {
		for _, workers := range []int{1, 2, 16, 4 * len(coll), -1} {
			cases = append(cases, edgeCase{sel, workers})
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cases))
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				e := exec.NewOver(s)
				e.Selector = c.sel
				e.Workers = c.workers
				res, err := e.RunContext(context.Background(), mustParse(t, storeQuery))
				if err != nil {
					errs[i] = err
					return
				}
				if renderResult(res) != want {
					errs[i] = fmt.Errorf("output differs from serial oracle")
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sel=%T workers=%d: %v", cases[i].sel, cases[i].workers, err)
		}
	}
}
