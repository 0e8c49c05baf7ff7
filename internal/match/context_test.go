package match

import (
	"context"
	"errors"
	"testing"
	"time"

	"gqldb/internal/graph"
	"gqldb/internal/pattern"
)

func TestFindContextNilAndBackground(t *testing.T) {
	g := fig416()
	p := trianglePattern()
	want, _, err := Find(p, g, nil, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []context.Context{nil, context.Background()} {
		ms, st, err := FindContext(ctx, p, g, nil, Baseline())
		if err != nil {
			t.Fatalf("ctx %v: %v", ctx, err)
		}
		if len(ms) != len(want) {
			t.Fatalf("ctx %v: %d matches, want %d", ctx, len(ms), len(want))
		}
		if ctx == nil && st.CancelChecks != 0 {
			t.Errorf("nil ctx: %d cancel checks, want 0 (Background never fires)", st.CancelChecks)
		}
	}
}

func TestFindContextPreCancelled(t *testing.T) {
	g := fig416()
	p := trianglePattern()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ms, st, err := FindContext(ctx, p, g, nil, Baseline())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ms != nil || st != nil {
		t.Fatalf("cancelled selection returned results: %v, %v", ms, st)
	}
}

// hardInstance builds a search with a huge backtracking space: an unlabeled
// 5-node clique pattern over a 60-node clique, exhaustive. Serial evaluation
// takes far longer than the test deadline, so only per-step cancellation can
// return in time.
func hardInstance() (*pattern.Pattern, *graph.Graph) {
	g := graph.New("K")
	n := 60
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode("", nil)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge("", ids[i], ids[j], nil)
		}
	}
	p := pattern.New("P")
	k := 5
	ps := make([]graph.NodeID, k)
	for i := 0; i < k; i++ {
		ps[i] = p.AddNode("", nil, nil)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			p.AddEdge("", ps[i], ps[j], nil, nil)
		}
	}
	return p, g
}

func TestFindContextCancelMidSearch(t *testing.T) {
	p, g := hardInstance()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := FindContext(ctx, p, g, nil, Options{Exhaustive: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancellation took %v; per-step poll missing?", el)
	}
}

func TestFindContextDeadline(t *testing.T) {
	p, g := hardInstance()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, _, err := FindContext(ctx, p, g, nil, Options{Exhaustive: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestExistsContextCancelled(t *testing.T) {
	p, g := hardInstance()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok, err := ExistsContext(ctx, p, g, nil, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ok {
		t.Fatal("cancelled Exists reported true")
	}
}

func TestCancelChecksCounted(t *testing.T) {
	g := fig416()
	p := trianglePattern()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, st, err := FindContext(ctx, p, g, nil, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if st.CancelChecks == 0 {
		t.Fatal("cancellable context produced zero cancellation polls")
	}
}

// TestRefineStopsOnCancel: refinement polls cancellation once per level, so
// a context cancelled before it starts leaves Φ as retrieval built it and
// records the context's error instead of refining to completion.
func TestRefineStopsOnCancel(t *testing.T) {
	g := fig416()
	p := trianglePattern()
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &searcher{p: p, g: g, opt: Optimized(), stats: &Stats{}, ctx: ctx, ctxDone: ctx.Done()}
	s.phi = make([][]graph.NodeID, p.Size())
	for u := range s.phi {
		for v := 0; v < g.NumNodes(); v++ {
			s.phi[u] = append(s.phi[u], graph.NodeID(v))
		}
	}
	s.refine()
	if !errors.Is(s.ctxErr, context.Canceled) {
		t.Fatalf("refine under a cancelled context recorded %v, want context.Canceled", s.ctxErr)
	}
	for u := range s.phi {
		if len(s.phi[u]) != g.NumNodes() {
			t.Fatalf("refine pruned Φ(%d) to %d of %d mates after cancellation", u, len(s.phi[u]), g.NumNodes())
		}
	}
}
