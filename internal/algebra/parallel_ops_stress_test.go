package algebra

import (
	"context"
	"errors"
	"sync"
	"testing"

	"gqldb/internal/expr"
	"gqldb/internal/graph"
	"gqldb/internal/match"
)

// signatures renders a collection as the ordered list of graph signatures —
// the byte-identical-order oracle for the parallel operators.
func signatures(c graph.Collection) []string {
	out := make([]string, len(c))
	for i, g := range c {
		out[i] = g.Signature()
	}
	return out
}

func sameOrder(t *testing.T, tag string, got, want graph.Collection) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d graphs, want %d", tag, len(got), len(want))
	}
	gs, ws := signatures(got), signatures(want)
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("%s: output order differs at %d:\n got %s\nwant %s", tag, i, gs[i], ws[i])
		}
	}
}

// workerSpans covers the edge cases the worker pool must get right: serial
// fallback, tiny pools, pools larger than the input, and GOMAXPROCS.
func workerSpans(n int) []int {
	return []int{0, 1, 2, 7, n + 1, 4*n + 4}
}

// TestParallelProductOrder: C × D on every worker count is byte-identical
// to the serial product. Run under -race via `make race`.
func TestParallelProductOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	c, d := bigCollection(24), bigCollection(17)
	want, err := CartesianProductContext(context.Background(), c, d, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, workers := range workerSpans(len(c) * len(d)) {
			var stats match.Stats
			got, err := CartesianProductContext(context.Background(), c, d, workers, &stats)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			sameOrder(t, "product", got, want)
			if len(stats.Ops) != 1 || stats.Ops[0].Items != len(c)*len(d) {
				t.Fatalf("workers=%d: stats %+v", workers, stats.Ops)
			}
		}
	}
}

// TestParallelValuedJoinOrder: the join predicate filters pairs; surviving
// graphs must appear in exact serial pair order on every worker count.
func TestParallelValuedJoinOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	c, d := bigCollection(20), bigCollection(15)
	for i, g := range c {
		g.Attrs = graph.TupleOf("", "size", int64(i%4))
	}
	for j, g := range d {
		g.Attrs = graph.TupleOf("", "size", int64(j%3))
	}
	pred := expr.Binary{Op: expr.OpEq, L: expr.Name{Parts: []string{"size"}}, R: expr.Lit{Val: graph.Int(1)}}
	want, err := ValuedJoinContext(context.Background(), c, d, pred, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("degenerate test: predicate rejects everything")
	}
	for _, workers := range workerSpans(len(c) * len(d)) {
		got, err := ValuedJoinContext(context.Background(), c, d, pred, workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameOrder(t, "valued-join", got, want)
	}
}

// TestParallelComposeOrder: ω_T over a matched collection preserves
// collection order on every worker count.
func TestParallelComposeOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	c := bigCollection(120)
	p := edgePattern()
	ms, err := SelectionContext(context.Background(), p, c, match.Options{Exhaustive: true}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &Template{Name: "out", Members: []TMember{
		TNode{Ref: []string{"P", "a"}},
		TNode{Ref: []string{"P", "b"}},
		TEdge{From: []string{"P", "a"}, To: []string{"P", "b"}},
	}}
	want, err := ComposeContext(context.Background(), tmpl, "P", ms, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, workers := range workerSpans(len(ms)) {
			got, err := ComposeContext(context.Background(), tmpl, "P", ms, workers, nil)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			sameOrder(t, "compose", got, want)
		}
	}
}

// TestParallelStructuralJoinOrder: template-pair instantiation preserves the
// serial pair order on every worker count.
func TestParallelStructuralJoinOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	c := bigCollection(40)
	p := edgePattern()
	ms, err := SelectionContext(context.Background(), p, c, match.Options{Exhaustive: true}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	left, right := ms[:len(ms)/2], ms[len(ms)/2:]
	tmpl := &Template{Name: "pair", Members: []TMember{
		TNode{Ref: []string{"L", "a"}},
		TNode{Ref: []string{"R", "b"}},
		TEdge{From: []string{"L", "a"}, To: []string{"R", "b"}},
	}}
	want, err := StructuralJoinContext(context.Background(), tmpl, "L", "R", left, right, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerSpans(len(left) * len(right)) {
		got, err := StructuralJoinContext(context.Background(), tmpl, "L", "R", left, right, workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameOrder(t, "structural-join", got, want)
	}
}

// TestParallelOpsConcurrentCallers runs every parallel operator from
// several goroutines at once over shared inputs — the server-shaped
// workload — so -race can see any hidden shared state.
func TestParallelOpsConcurrentCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	c, d := bigCollection(12), bigCollection(9)
	p := edgePattern()
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	ms, err := SelectionContext(context.Background(), p, c, match.Options{Exhaustive: true}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &Template{Name: "out", Members: []TMember{TNode{Ref: []string{"P", "a"}}}}
	pairTmpl := &Template{Name: "pair", Members: []TMember{
		TNode{Ref: []string{"L", "a"}},
		TNode{Ref: []string{"R", "b"}},
	}}

	const callers = 6
	errs := make([]error, 4*callers)
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			_, err := CartesianProductContext(context.Background(), c, d, 3, nil)
			errs[4*k] = err
		}()
		go func() {
			defer wg.Done()
			_, err := ComposeContext(context.Background(), tmpl, "P", ms, 3, nil)
			errs[4*k+1] = err
		}()
		go func() {
			defer wg.Done()
			_, err := SelectionContext(context.Background(), p, c, match.Options{Exhaustive: true}, nil, 3, nil)
			errs[4*k+2] = err
		}()
		go func() {
			defer wg.Done()
			_, err := StructuralJoinContext(context.Background(), pairTmpl, "L", "R", ms[:4], ms[:4], 3, nil)
			errs[4*k+3] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
}

// TestParallelOpsMidFlightCancellation cancels each operator while workers
// are mid-flight; every operator must return ctx.Err() promptly and -race
// must see no post-cancellation slot writes racing the caller.
func TestParallelOpsMidFlightCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	c, d := bigCollection(60), bigCollection(60)
	p := edgePattern()
	ms, err := SelectionContext(context.Background(), p, c, match.Options{Exhaustive: true}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &Template{Name: "out", Members: []TMember{TNode{Ref: []string{"P", "a"}}}}

	ops := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"product", func(ctx context.Context) error {
			_, err := CartesianProductContext(ctx, c, d, 4, nil)
			return err
		}},
		{"valued-join", func(ctx context.Context) error {
			pred := expr.Binary{Op: expr.OpEq, L: expr.Name{Parts: []string{"size"}}, R: expr.Lit{Val: graph.Int(0)}}
			_, err := ValuedJoinContext(ctx, c, d, pred, 4, nil)
			return err
		}},
		{"compose", func(ctx context.Context) error {
			_, err := ComposeContext(ctx, tmpl, "P", ms, 4, nil)
			return err
		}},
		{"structural-join", func(ctx context.Context) error {
			pairTmpl := &Template{Name: "pair", Members: []TMember{
				TNode{Ref: []string{"L", "a"}},
				TNode{Ref: []string{"R", "b"}},
			}}
			_, err := StructuralJoinContext(ctx, pairTmpl, "L", "R", ms, ms, 4, nil)
			return err
		}},
		{"selection", func(ctx context.Context) error {
			_, err := SelectionContext(ctx, p, c, match.Options{Exhaustive: true}, nil, 4, nil)
			return err
		}},
	}
	for _, op := range ops {
		for round := 0; round < 5; round++ {
			ctx, cancel := context.WithCancel(context.Background())
			// Cancel concurrently with the operator's first chunks.
			go cancel()
			err := op.run(ctx)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s round %d: err = %v, want nil or context.Canceled", op.name, round, err)
			}
			cancel()
		}
		// Pre-cancelled: must fail fast without touching any work.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := op.run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s pre-cancelled: err = %v, want context.Canceled", op.name, err)
		}
	}
}
