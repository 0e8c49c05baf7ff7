package algebra

import (
	"context"
	"sync"
	"testing"

	"gqldb/internal/graph"
	"gqldb/internal/match"
)

// TestParallelSelectionStress drives the chunked work-stealing cursor hard
// enough for `go test -race` to observe any unsynchronized access: many
// rounds over many small graphs, with worker counts spanning the edge
// cases (1 worker = sequential fallback, workers > len(c) = clamped,
// 0 = GOMAXPROCS) and with a shared prebuilt index map read from every
// worker. Run it under -race via `make race`.
func TestParallelSelectionStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	c := bigCollection(200)
	p := edgePattern()
	opt := match.Options{Exhaustive: true}

	// Shared read-only index map: every worker goroutine reads it, which
	// is only race-clean if the selection never mutates it.
	indexes := make(map[*graph.Graph]*match.Index, len(c))
	for _, g := range c {
		indexes[g] = match.BuildIndex(g, 1, false)
	}
	ixFor := func(g *graph.Graph) *match.Index { return indexes[g] }

	want := referenceSelection(t, p, c, opt, ixFor)

	for round := 0; round < 5; round++ {
		for _, workers := range []int{0, 1, 2, 7, len(c), 4 * len(c)} {
			got, err := SelectionContext(context.Background(), p, c, opt, ixFor, workers, nil)
			if err != nil {
				t.Fatalf("round %d workers=%d: %v", round, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d workers=%d: %d matches, want %d", round, workers, len(got), len(want))
			}
			for i := range want {
				if got[i].G != want[i].G || got[i].M.Nodes[0] != want[i].M.Nodes[0] {
					t.Fatalf("round %d workers=%d: result diverges at %d", round, workers, i)
				}
			}
		}
	}
}

// TestParallelSelectionConcurrentCallers runs several parallel selection
// evaluations of the same pattern over the same collection at once — the
// server-shaped workload — so -race can see any hidden shared state
// between evaluations (the compiled pattern, most importantly).
func TestParallelSelectionConcurrentCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	c := bigCollection(80)
	p := edgePattern()
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	opt := match.Options{Exhaustive: true}
	want := referenceSelection(t, p, c, opt, nil)

	const callers = 8
	errs := make([]error, callers)
	counts := make([]int, callers)
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := SelectionContext(context.Background(), p, c, opt, nil, 4, nil)
			errs[k] = err
			counts[k] = len(got)
		}()
	}
	wg.Wait()
	for k := 0; k < callers; k++ {
		if errs[k] != nil {
			t.Fatalf("caller %d: %v", k, errs[k])
		}
		if counts[k] != len(want) {
			t.Fatalf("caller %d: %d matches, want %d", k, counts[k], len(want))
		}
	}
}
