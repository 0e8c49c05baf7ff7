package gqldb

import (
	"context"
	"strings"
	"testing"
)

const obsQuerySrc = `
graph P { node v1 where label="A"; node v2 where label="B"; edge (v1, v2); };
for P exhaustive in doc("db")
return graph { node P.v1; node P.v2; edge (P.v1, P.v2); };`

// TestTracingResultsByteIdentical: for every worker count, the query's
// result graphs are byte-identical with tracing off and on — observability
// must never perturb evaluation.
func TestTracingResultsByteIdentical(t *testing.T) {
	store := Store{"db": ctxTestCollection(t)}
	for _, workers := range []int{1, 4, 0} {
		plain, err := Query(context.Background(), obsQuerySrc, QueryOptions{Docs: store, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Trace != nil {
			t.Fatal("untraced run carries a trace")
		}
		ctx, root := StartTrace(context.Background(), "query")
		traced, err := Query(ctx, obsQuerySrc, QueryOptions{Docs: store, Workers: workers})
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		if traced.Trace != root {
			t.Fatal("QueryResult.Trace must be the started root")
		}
		if len(traced.Out) != len(plain.Out) {
			t.Fatalf("workers=%d: tracing changed result count %d vs %d", workers, len(traced.Out), len(plain.Out))
		}
		for i := range plain.Out {
			if traced.Out[i].String() != plain.Out[i].String() {
				t.Fatalf("workers=%d: result %d differs with tracing on", workers, i)
			}
		}
	}
}

// TestFacadeTraceRender: the facade trace covers parse and evaluation, and
// Render produces the indented tree EXPLAIN prints.
func TestFacadeTraceRender(t *testing.T) {
	store := Store{"db": ctxTestCollection(t)}
	ctx, root := StartTrace(context.Background(), "query")
	if _, err := Query(ctx, obsQuerySrc, QueryOptions{Docs: store, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	root.End()
	out := root.Render()
	for _, frag := range []string{"query", "parse", "flwr", "selection"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Render missing %q:\n%s", frag, out)
		}
	}
}

// TestWriteMetricsFacade: the metrics dump reflects executed queries.
func TestWriteMetricsFacade(t *testing.T) {
	store := Store{"db": ctxTestCollection(t)}
	if _, err := Query(context.Background(), obsQuerySrc, QueryOptions{Docs: store, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "gqldb_queries_total") {
		t.Fatalf("metrics dump missing query counter:\n%s", b.String())
	}
	snap := MetricsSnapshot()
	if n, _ := snap["gqldb_queries_total"].(int64); n < 1 {
		t.Fatalf("snapshot queries = %v, want >= 1", snap["gqldb_queries_total"])
	}
}
