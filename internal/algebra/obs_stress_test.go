package algebra

import (
	"context"
	"sync"
	"testing"

	"gqldb/internal/expr"
	"gqldb/internal/graph"
	"gqldb/internal/match"
	"gqldb/internal/obs"
)

// TestSharedTraceSinkRace drives many concurrent operators through ONE
// shared trace root (the shape RunContext produces: every operator of a
// query hangs its span off the same tree) with worker pools both larger
// than the input and serial, and asserts under -race that (a) the span
// mutators used from workers are safe, and (b) tracing never perturbs the
// results — every lane stays byte-identical to the serial baseline.
func TestSharedTraceSinkRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	c, d := bigCollection(12), bigCollection(9)
	for i, g := range c {
		g.Attrs = graph.TupleOf("", "size", int64(i%4))
	}
	for j, g := range d {
		g.Attrs = graph.TupleOf("", "size", int64(j%3))
	}
	p := edgePattern()
	opt := match.Options{Exhaustive: true}
	pred := expr.Binary{Op: expr.OpEq, L: expr.Name{Parts: []string{"size"}}, R: expr.Lit{Val: graph.Int(1)}}

	wantSel, err := SelectionContext(context.Background(), p, c, opt, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJoin, err := ValuedJoinContext(context.Background(), c, d, pred, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantSel) == 0 || len(wantJoin) == 0 {
		t.Fatal("degenerate baseline")
	}

	root := obs.NewTrace("stress")
	ctx := obs.NewContext(context.Background(), root)

	const lanes = 8
	sels := make([]Matched, lanes)
	joins := make([]graph.Collection, lanes)
	errs := make([]error, 2*lanes)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		// Alternate between "more workers than items" (every worker pool
		// edge) and the serial path (workers=1) through the same sink.
		workers := len(c)*len(d) + 5
		if i%2 == 1 {
			workers = 1
		}
		wg.Add(2)
		go func(i, workers int) {
			defer wg.Done()
			sels[i], errs[2*i] = SelectionContext(ctx, p, c, opt, nil, workers, nil)
		}(i, workers)
		go func(i, workers int) {
			defer wg.Done()
			joins[i], errs[2*i+1] = ValuedJoinContext(ctx, c, d, pred, workers, nil)
		}(i, workers)
	}
	wg.Wait()
	root.End()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
	}
	for i := 0; i < lanes; i++ {
		if len(sels[i]) != len(wantSel) {
			t.Fatalf("lane %d: %d matches, want %d", i, len(sels[i]), len(wantSel))
		}
		for k := range wantSel {
			if sels[i][k].G != wantSel[k].G {
				t.Fatalf("lane %d: selection order differs at %d", i, k)
			}
			for u := range wantSel[k].M.Nodes {
				if sels[i][k].M.Nodes[u] != wantSel[k].M.Nodes[u] {
					t.Fatalf("lane %d: binding differs at %d", i, k)
				}
			}
		}
		sameOrder(t, "valued-join", joins[i], wantJoin)
	}

	// The shared tree holds one child span per operator call, each with
	// truthful item counters (Add from workers must not lose increments).
	var selSpans, joinSpans int
	root.Walk(func(_ int, sp *obs.Span) {
		switch sp.Name {
		case "selection":
			selSpans++
			if got := sp.Count("matches"); got != int64(len(wantSel)) {
				t.Errorf("selection span matches = %d, want %d", got, len(wantSel))
			}
		case "valued-join":
			joinSpans++
			if got := sp.Count("items"); got != int64(len(c)*len(d)) {
				t.Errorf("valued-join span items = %d, want %d", got, len(c)*len(d))
			}
		}
	})
	if selSpans != lanes || joinSpans != lanes {
		t.Fatalf("span fan-out: %d selection + %d valued-join spans, want %d each", selSpans, joinSpans, lanes)
	}
}
