package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gqldb/internal/graph"
	"gqldb/internal/parser"
)

// stressStore builds a store of many small random graphs so the for-clause
// fans out over enough matches for the race detector to observe worker
// interleavings.
func stressStore(n int) docs {
	rng := rand.New(rand.NewSource(7))
	var c graph.Collection
	for i := 0; i < n; i++ {
		g := graph.New(fmt.Sprintf("g%d", i))
		k := 3 + rng.Intn(4)
		for j := 0; j < k; j++ {
			g.AddNode("", graph.TupleOf("", "label", string(rune('A'+rng.Intn(3)))))
		}
		for j := 0; j < 2*k; j++ {
			u, v := rng.Intn(k), rng.Intn(k)
			if u != v {
				g.AddEdge("", graph.NodeID(u), graph.NodeID(v), nil)
			}
		}
		c = append(c, g)
	}
	return docs{"db": c}
}

const stressQuery = `
graph P { node v1 where label="A"; node v2 where label="B"; edge (v1, v2); };
for P exhaustive in doc("db")
return graph { node P.v1; node P.v2; edge (P.v1, P.v2); };
`

// TestRunContextWorkersMatchSerial: the parallel exec pipeline (selection
// fan-out plus return-clause instantiation fan-out) produces byte-identical
// output for every worker setting. Run under -race via `make race`.
func TestRunContextWorkersMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	store := stressStore(120)
	prog, err := parser.Parse(stressQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newEngine(store).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Out) == 0 {
		t.Fatal("degenerate test: no matches")
	}
	for round := 0; round < 3; round++ {
		for _, workers := range []int{0, 1, 2, 7, -1, 4 * len(store["db"])} {
			e := newEngine(store)
			e.Workers = workers
			got, err := e.RunContext(context.Background(), prog)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if len(got.Out) != len(want.Out) {
				t.Fatalf("workers=%d: %d results, want %d", workers, len(got.Out), len(want.Out))
			}
			for i := range want.Out {
				if got.Out[i].Signature() != want.Out[i].Signature() {
					t.Fatalf("workers=%d: output differs at %d", workers, i)
				}
			}
			if workers != 0 && workers != 1 && len(got.Stats.Ops) == 0 {
				t.Fatalf("workers=%d: no operator stats recorded", workers)
			}
		}
	}
}

// TestRunContextConcurrentCallers runs several engines over the same store
// and parsed program at once; the store and AST are shared read-only state.
func TestRunContextConcurrentCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	store := stressStore(60)
	prog, err := parser.Parse(stressQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newEngine(store).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	errs := make([]error, callers)
	counts := make([]int, callers)
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := newEngine(store)
			e.Workers = 4
			res, err := e.RunContext(context.Background(), prog)
			errs[k] = err
			if res != nil {
				counts[k] = len(res.Out)
			}
		}()
	}
	wg.Wait()
	for k := 0; k < callers; k++ {
		if errs[k] != nil {
			t.Fatalf("caller %d: %v", k, errs[k])
		}
		if counts[k] != len(want.Out) {
			t.Fatalf("caller %d: %d results, want %d", k, counts[k], len(want.Out))
		}
	}
}

// TestRunContextMidFlightCancellation cancels the pipeline concurrently with
// evaluation; the engine must return nil-or-ctx.Err() with no racing writes.
func TestRunContextMidFlightCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	store := stressStore(150)
	prog, err := parser.Parse(stressQuery)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		e := newEngine(store)
		e.Workers = 4
		_, err := e.RunContext(ctx, prog)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err = %v, want nil or context.Canceled", round, err)
		}
		cancel()
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := newEngine(store).RunContext(ctx, prog); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
}
